package serve

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/alert"
)

const alertQuery = "SELECT AVG(Price) FROM Orders"

// saturated returns a server whose one execution slot is held and whose
// queue is off, so every Submit is turned away as queue_full, and the bus
// it raises admission alerts on.
func saturated(t *testing.T) (*Server, *alert.Bus) {
	t.Helper()
	bus := alert.New(alert.Config{})
	s := New(testEngine(t, core.Config{Seed: 7}), Config{MaxInFlight: 1, MaxQueue: -1, Alerts: bus})
	if err := s.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s, bus
}

func rejectN(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.Submit(context.Background(), alertQuery); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("submit under a held slot: err = %v, want ErrQueueFull", err)
		}
	}
}

func admit(t *testing.T, s *Server) {
	t.Helper()
	if _, err := s.Submit(context.Background(), alertQuery); err != nil {
		t.Fatal(err)
	}
}

// episode returns the firing serve episode of (kind, key), if any.
func episode(bus *alert.Bus, kind, key string) (alert.Event, bool) {
	for _, ev := range bus.Active() {
		if ev.Source == "serve" && ev.Kind == kind && ev.Key == key {
			return ev, true
		}
	}
	return alert.Event{}, false
}

func TestAdmissionAlerts(t *testing.T) {
	t.Run("reject_spike at the threshold", func(t *testing.T) {
		s, bus := saturated(t)
		rejectN(t, s, rejectSpikeThreshold-1)
		if ev, ok := episode(bus, "reject_spike", "queue_full"); ok {
			t.Fatalf("reject_spike raised below the threshold: %+v", ev)
		}
		rejectN(t, s, 1)
		ev, ok := episode(bus, "reject_spike", "queue_full")
		if !ok || ev.Severity != alert.SeverityWarning ||
			ev.Observed != rejectSpikeThreshold || ev.Expected != rejectSpikeThreshold {
			t.Fatalf("reject_spike after %d rejections = %+v (firing %v)", rejectSpikeThreshold, ev, ok)
		}
	})

	t.Run("queue_saturation on every queue_full", func(t *testing.T) {
		s, bus := saturated(t)
		for i := 1; i <= 3; i++ {
			rejectN(t, s, 1)
			ev, ok := episode(bus, "queue_saturation", "queue")
			if !ok || ev.Count != i {
				t.Fatalf("after %d rejections queue_saturation = %+v (firing %v), want %d raises", i, ev, ok, i)
			}
		}
	})

	t.Run("both resolve on the next admissions", func(t *testing.T) {
		s, bus := saturated(t)
		rejectN(t, s, rejectSpikeThreshold)
		if n := len(bus.Active()); n != 2 {
			t.Fatalf("%d firing episodes, want reject_spike and queue_saturation", n)
		}
		s.release()
		// The queue is idle again, but the rejections are still in the window.
		admit(t, s)
		if _, ok := episode(bus, "queue_saturation", "queue"); ok {
			t.Fatal("queue_saturation still firing after an admission with the queue idle")
		}
		if _, ok := episode(bus, "reject_spike", "queue_full"); !ok {
			t.Fatal("reject_spike resolved while its rejections are inside the window")
		}
		// Age every recorded rejection by one window, as if it had passed.
		s.amu.Lock()
		for _, w := range s.rejects {
			for i := range w {
				w[i] = w[i].Add(-rejectSpikeWindow)
			}
		}
		s.amu.Unlock()
		admit(t, s)
		if active := bus.Active(); len(active) != 0 {
			t.Fatalf("episodes still firing after the window drained: %+v", active)
		}
	})
}
