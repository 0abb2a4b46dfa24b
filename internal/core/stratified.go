package core

import (
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/rng"
	"repro/internal/table"
)

// stratifiedSample is a per-key-capped sample (BlinkDB's stratified sample
// family): rare groups keep all their rows, large groups are capped, so
// GROUP BY answers have usable error bars for every group — a uniform
// sample starves rare groups.
type stratifiedSample struct {
	keyColumn string
	st        *exec.StoredTable
}

// BuildStratifiedSample builds a stratified sample over the named key
// column with at most capPerGroup rows per distinct key. The engine
// prefers it over uniform samples for queries grouping by that column.
// Like BuildSamples it holds the engine lock only to split the RNG and to
// publish, and replaces the catalog slice copy-on-write, so concurrent
// queries keep running and keep their snapshot.
func (e *Engine) BuildStratifiedSample(name, keyColumn string, capPerGroup int) error {
	rt, col, src, err := e.stratifiedSource(name, keyColumn, capPerGroup)
	if err != nil {
		return err
	}
	keys := stringKeys(col)

	// Collect row indices per key, cap each stratum by a seeded shuffle.
	byKey := map[string][]int{}
	for i, k := range keys {
		byKey[k] = append(byKey[k], i)
	}
	groupNames := make([]string, 0, len(byKey))
	for k := range byKey {
		groupNames = append(groupNames, k)
	}
	sort.Strings(groupNames)

	var idx []int
	for _, k := range groupNames {
		rows := byKey[k]
		take := len(rows)
		if take > capPerGroup {
			take = capPerGroup
		}
		src.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		idx = append(idx, rows[:take]...)
	}
	// Shuffle the assembled sample so contiguous subsets stay random
	// within strata interleaving.
	src.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })

	built := &stratifiedSample{
		keyColumn: keyColumn,
		st:        e.storeSample(rt.full, idx, table.BackingRaw),
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	rt.stratified = append(append([]*stratifiedSample(nil), rt.stratified...), built)
	e.gen.Add(1)
	return nil
}

// stratifiedSource validates a BuildStratifiedSample request and splits its
// RNG stream under the engine lock; a rejected request consumes no stream.
func (e *Engine) stratifiedSource(name, keyColumn string, capPerGroup int) (*registeredTable, table.StrReader, *rng.Source, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rt, ok := e.tables[name]
	if !ok {
		return nil, nil, nil, fmt.Errorf("core: unknown table %q", name)
	}
	if capPerGroup <= 0 {
		return nil, nil, nil, fmt.Errorf("core: cap per group must be positive")
	}
	col := rt.full.ColumnByName(keyColumn)
	if col == nil {
		return nil, nil, nil, fmt.Errorf("core: table %q has no column %q", name, keyColumn)
	}
	keys, ok := col.(table.StrReader)
	if !ok {
		return nil, nil, nil, fmt.Errorf("core: stratified key %q: stratified sampling requires a string key column", keyColumn)
	}
	return rt, keys, e.src.Split(), nil
}

// stringKeys returns the key column as a flat slice. A block-backed column
// is decoded once in bulk: the stratified build touches every row anyway, so
// that is its cheapest access pattern.
func stringKeys(col table.StrReader) []string {
	if raw, ok := col.(table.StringCol); ok {
		return raw
	}
	out := make([]string, col.Len())
	col.ReadStr(out, 0)
	return out
}
