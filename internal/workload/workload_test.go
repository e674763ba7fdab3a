package workload

import (
	"testing"

	"smartsock/internal/sysinfo"
)

func TestApplySuperPIFootprint(t *testing.T) {
	// Table 4.1: before/after memory comparison around SuperPI.
	src := sysinfo.NewSynthetic(sysinfo.Idle("mimas", 3394.76, 256))
	before, _ := src.Snapshot()

	release := Apply(src, SuperPI())
	during, _ := src.Snapshot()

	if during.MemFree >= before.MemFree {
		t.Error("SuperPI did not consume memory")
	}
	if before.MemFree-during.MemFree != 150*1024*1024 {
		t.Errorf("memory delta = %d, want 150 MB", before.MemFree-during.MemFree)
	}
	if during.Load1 <= 1 {
		t.Errorf("Load1 = %v, thesis says it stays above 1", during.Load1)
	}
	if during.CPUIdle > 0.1 {
		t.Errorf("CPUIdle = %v during SuperPI", during.CPUIdle)
	}

	release()
	after, _ := src.Snapshot()
	if after.MemFree != before.MemFree || after.MemUsed != before.MemUsed {
		t.Errorf("memory not restored: before free=%d after=%d", before.MemFree, after.MemFree)
	}
	if diff := after.Load1 - before.Load1; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Load1 not restored: %v vs %v", after.Load1, before.Load1)
	}
}

func TestApplyClampsToAvailableMemory(t *testing.T) {
	// A 64 MB host cannot lose 150 MB; free memory must never go
	// negative (it would swap instead).
	src := sysinfo.NewSynthetic(sysinfo.Idle("tiny", 1000, 64))
	release := Apply(src, SuperPI())
	defer release()
	s, _ := src.Snapshot()
	if s.MemFree != 0 {
		t.Errorf("MemFree = %d, want 0 (fully consumed)", s.MemFree)
	}
	if s.MemUsed > s.MemTotal {
		t.Errorf("MemUsed %d exceeds MemTotal %d", s.MemUsed, s.MemTotal)
	}
}

func TestReleaseIsIdempotent(t *testing.T) {
	src := sysinfo.NewSynthetic(sysinfo.Idle("x", 1000, 256))
	before, _ := src.Snapshot()
	release := Apply(src, SuperPI())
	release()
	release() // second call must not double-credit
	after, _ := src.Snapshot()
	if after.MemFree != before.MemFree {
		t.Error("double release corrupted memory accounting")
	}
}

func TestStackedWorkloads(t *testing.T) {
	src := sysinfo.NewSynthetic(sysinfo.Idle("x", 1000, 512))
	r1 := Apply(src, Load{MemoryBytes: 100 << 20, CPUBusy: 0.3, LoadAvg: 0.5})
	r2 := Apply(src, Load{MemoryBytes: 100 << 20, CPUBusy: 0.3, LoadAvg: 0.5})
	s, _ := src.Snapshot()
	if s.Load1 < 1.0 {
		t.Errorf("stacked Load1 = %v", s.Load1)
	}
	r1()
	r2()
	s, _ = src.Snapshot()
	if s.Load1 > 0.1 {
		t.Errorf("Load1 after releases = %v", s.Load1)
	}
}
