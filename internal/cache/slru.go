package cache

import "container/list"

// slru is the answer cache's admission rule. A new entry is probationary;
// its first hit promotes it to a protected LRU. At most an eighth of the
// capacity is probationary, and the oldest probationary entry is dropped
// first, so a client that never repeats itself (a fresh literal every
// query) cycles through that segment and cannot push out an entry that has
// already been reused. The protected segment holds the rest of the capacity
// and evicts its least recently used entry. Not safe for concurrent use: callers hold their own lock.
type slru[K comparable, V any] struct {
	m         map[K]*slruItem[K, V]
	probation list.List // of *slruItem; front is newest
	protected list.List // of *slruItem; front is most recently used
	capacity  int
}

type slruItem[K comparable, V any] struct {
	key       K
	val       V
	el        *list.Element
	protected bool
}

func newSLRU[K comparable, V any](capacity int) *slru[K, V] {
	return &slru[K, V]{m: make(map[K]*slruItem[K, V]), capacity: capacity}
}

func (s *slru[K, V]) probationCap() int { return s.capacity / 8 }

func (s *slru[K, V]) len() int { return len(s.m) }

// get returns k's item, or nil, without changing its standing.
func (s *slru[K, V]) get(k K) *slruItem[K, V] { return s.m[k] }

// hit records a reuse of it: a probationary item is promoted, a protected
// one becomes the most recently used. It returns the number of entries the
// promotion evicted from the protected segment (0 or 1).
func (s *slru[K, V]) hit(it *slruItem[K, V]) int {
	if it.protected {
		s.protected.MoveToFront(it.el)
		return 0
	}
	s.probation.Remove(it.el)
	it.el, it.protected = s.protected.PushFront(it), true
	if s.protected.Len() <= s.capacity-s.probationCap() {
		return 0
	}
	s.remove(s.protected.Back().Value.(*slruItem[K, V]))
	return 1
}

// put stores v under k. An existing entry takes the new value and keeps its
// standing; a new one enters probation. It returns the number of entries
// evicted to make room (0 or 1).
func (s *slru[K, V]) put(k K, v V) int {
	if it := s.m[k]; it != nil {
		it.val = v
		return 0
	}
	it := &slruItem[K, V]{key: k, val: v}
	it.el = s.probation.PushFront(it)
	s.m[k] = it
	if s.probation.Len() <= s.probationCap() {
		return 0
	}
	s.remove(s.probation.Back().Value.(*slruItem[K, V]))
	return 1
}

func (s *slru[K, V]) remove(it *slruItem[K, V]) {
	if it.protected {
		s.protected.Remove(it.el)
	} else {
		s.probation.Remove(it.el)
	}
	delete(s.m, it.key)
}
