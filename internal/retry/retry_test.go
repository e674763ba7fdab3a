package retry

import (
	"testing"
	"time"
)

func noJitter(b *Backoff) *Backoff { b.Jitter = -1; return b }

func TestExponentialGrowthAndCap(t *testing.T) {
	b := noJitter(&Backoff{Base: 100 * time.Millisecond, Max: 500 * time.Millisecond})
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		500 * time.Millisecond,
		500 * time.Millisecond,
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("attempt %d: got %v, want %v", i, got, w)
		}
	}
}

func TestResetRestartsSchedule(t *testing.T) {
	b := noJitter(&Backoff{Base: 50 * time.Millisecond})
	b.Next()
	if got := b.Next(); got != 100*time.Millisecond {
		t.Fatalf("second wait %v, want 2×base", got)
	}
	b.Reset()
	if got := b.Next(); got != 50*time.Millisecond {
		t.Fatalf("post-reset wait %v, want base", got)
	}
}

func TestJitterStaysBounded(t *testing.T) {
	draws := []float64{0, 0.5, 1}
	i := 0
	b := &Backoff{
		Base:   100 * time.Millisecond,
		Max:    100 * time.Millisecond,
		Jitter: 0.2,
		Rand:   func() float64 { d := draws[i%len(draws)]; i++; return d },
	}
	for k := 0; k < 3; k++ {
		got := b.Next()
		if got < 80*time.Millisecond || got > 120*time.Millisecond {
			t.Fatalf("jittered wait %v outside ±20%% of 100ms", got)
		}
	}
}

func TestDefaultMaxIsBounded(t *testing.T) {
	b := noJitter(&Backoff{Base: 10 * time.Millisecond})
	var last time.Duration
	for i := 0; i < 20; i++ {
		last = b.Next()
	}
	if last != 160*time.Millisecond {
		t.Fatalf("default cap gave %v, want 16×base = 160ms", last)
	}
}

func TestNextAtLeastEnforcesFloor(t *testing.T) {
	b := noJitter(&Backoff{Base: 10 * time.Millisecond, Max: time.Second})
	// First wait would be 10ms; a 100ms server hint must win.
	if got := b.NextAtLeast(100 * time.Millisecond); got != 100*time.Millisecond {
		t.Fatalf("NextAtLeast(100ms) = %v, want 100ms", got)
	}
	// The schedule still advanced: the next plain wait is 20ms.
	if got := b.Next(); got != 20*time.Millisecond {
		t.Fatalf("Next after NextAtLeast = %v, want 20ms", got)
	}
	// Once the schedule exceeds the floor, the schedule wins.
	b2 := noJitter(&Backoff{Base: 300 * time.Millisecond, Max: time.Second})
	if got := b2.NextAtLeast(100 * time.Millisecond); got != 300*time.Millisecond {
		t.Fatalf("NextAtLeast(100ms) with 300ms schedule = %v, want 300ms", got)
	}
	// A zero floor is a plain Next.
	b3 := noJitter(&Backoff{Base: 40 * time.Millisecond})
	if got := b3.NextAtLeast(0); got != 40*time.Millisecond {
		t.Fatalf("NextAtLeast(0) = %v, want 40ms", got)
	}
}
