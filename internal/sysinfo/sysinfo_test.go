package sysinfo

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"smartsock/internal/status"
)

func TestSyntheticSnapshotAndUpdate(t *testing.T) {
	sy := NewSynthetic(Idle("helene", 3394.76, 256))
	s, err := sy.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if s.Host != "helene" || s.Bogomips != 3394.76 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.MemTotal != 256*1024*1024 {
		t.Errorf("MemTotal = %d", s.MemTotal)
	}
	sy.Update(func(st *status.ServerStatus) {
		st.Load1 = 1.5
		st.CPUIdle = 0.1
	})
	s2, _ := sy.Snapshot()
	if s2.Load1 != 1.5 || s2.CPUIdle != 0.1 {
		t.Errorf("update not visible: %+v", s2)
	}
	if s.Load1 == 1.5 {
		t.Error("earlier snapshot aliased the live state")
	}
}

func TestIdleIsMostlyFree(t *testing.T) {
	s := Idle("x", 1730.15, 128)
	if s.CPUIdle < 0.9 {
		t.Errorf("idle CPUIdle = %v", s.CPUIdle)
	}
	if s.MemFree <= s.MemUsed {
		t.Errorf("idle memory mostly used: free=%d used=%d", s.MemFree, s.MemUsed)
	}
	if s.MemFree+s.MemUsed != s.MemTotal {
		t.Error("memory does not add up")
	}
}

func TestSyntheticConcurrentUpdates(t *testing.T) {
	sy := NewSynthetic(Idle("x", 1000, 128))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sy.Update(func(st *status.ServerStatus) { st.Load1 += 0.001 })
				sy.Snapshot()
			}
		}()
	}
	wg.Wait()
	s, _ := sy.Snapshot()
	want := 0.01 + 8*100*0.001
	if diff := s.Load1 - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Load1 = %v, want %v (lost updates)", s.Load1, want)
	}
}

// writeFixture builds a miniature /proc tree.
func writeFixture(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func fixtureTree(t *testing.T, cpu string, netBytes string) string {
	dir := t.TempDir()
	writeFixture(t, dir, map[string]string{
		"loadavg": "0.42 0.31 0.18 1/123 4567\n",
		"stat":    cpu,
		"meminfo": "MemTotal:       256068 kB\nMemFree:        137820 kB\nBuffers:         17856 kB\nCached:          80968 kB\n",
		"net/dev": "Inter-|   Receive                                                |  Transmit\n" +
			" face |bytes    packets errs drop fifo frame compressed multicast|bytes    packets errs drop fifo colls carrier compressed\n" +
			"    lo:  999999    9999    0    0    0     0          0         0   999999    9999    0    0    0     0       0          0\n" +
			"  eth0: " + netBytes + "\n",
		"diskstats": "   8       0 sda 100 0 800 0 50 0 400 0 0 0 0\n",
		"cpuinfo":   "processor\t: 0\nmodel name\t: Pentium III (Coppermine)\nbogomips\t: 1730.15\n",
	})
	return dir
}

func TestProcSourceFirstSnapshot(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("proc fixture layout assumes linux-style paths")
	}
	dir := fixtureTree(t, "cpu  100 0 50 850 0 0 0 0\n", "1000 10 0 0 0 0 0 0 2000 20 0 0 0 0 0 0")
	src := NewProcSource("sagit", dir)
	s, err := src.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if s.Host != "sagit" {
		t.Errorf("Host = %q", s.Host)
	}
	if s.Load1 != 0.42 || s.Load5 != 0.31 || s.Load15 != 0.18 {
		t.Errorf("loadavg = %v %v %v", s.Load1, s.Load5, s.Load15)
	}
	if s.Bogomips != 1730.15 {
		t.Errorf("Bogomips = %v", s.Bogomips)
	}
	// First snapshot: CPU fractions since boot = 100/1000 user etc.
	if s.CPUUser != 0.1 || s.CPUSystem != 0.05 || s.CPUIdle != 0.85 {
		t.Errorf("cpu = %v %v %v %v", s.CPUUser, s.CPUNice, s.CPUSystem, s.CPUIdle)
	}
	if s.MemTotal != 256068*1024 {
		t.Errorf("MemTotal = %d", s.MemTotal)
	}
	wantFree := uint64(137820+17856+80968) * 1024
	if s.MemFree != wantFree {
		t.Errorf("MemFree = %d, want %d (free+buffers+cached)", s.MemFree, wantFree)
	}
	if s.NetIface != "eth0" {
		t.Errorf("NetIface = %q (lo must be skipped)", s.NetIface)
	}
}

func TestProcSourceRatesBetweenScans(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("proc fixture layout assumes linux-style paths")
	}
	dir := fixtureTree(t, "cpu  100 0 50 850 0 0 0 0\n", "1000 10 0 0 0 0 0 0 2000 20 0 0 0 0 0 0")
	src := NewProcSource("sagit", dir)
	if _, err := src.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Second scan: 90 more user jiffies, 10 more idle; net counters grew.
	writeFixture(t, dir, map[string]string{
		"stat": "cpu  190 0 50 860 0 0 0 0\n",
		"net/dev": "header\nheader\n" +
			"  eth0: 51000 110 0 0 0 0 0 0 102000 120 0 0 0 0 0 0\n",
	})
	s, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s.CPUUser != 0.9 || s.CPUIdle != 0.1 {
		t.Errorf("interval cpu = user %v idle %v, want 0.9 / 0.1", s.CPUUser, s.CPUIdle)
	}
	if s.NetRBytesPS <= 0 || s.NetTBytesPS <= 0 {
		t.Errorf("net rates = %v / %v, want positive", s.NetRBytesPS, s.NetTBytesPS)
	}
}

func TestProcSourceCounterWrapIsZeroNotNegative(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("proc fixture layout assumes linux-style paths")
	}
	dir := fixtureTree(t, "cpu  100 0 50 850 0 0 0 0\n", "999999 10 0 0 0 0 0 0 999999 20 0 0 0 0 0 0")
	src := NewProcSource("sagit", dir)
	if _, err := src.Snapshot(); err != nil {
		t.Fatal(err)
	}
	writeFixture(t, dir, map[string]string{
		"stat": "cpu  200 0 50 900 0 0 0 0\n",
		"net/dev": "h\nh\n" +
			"  eth0: 5 1 0 0 0 0 0 0 5 1 0 0 0 0 0 0\n", // counters reset
	})
	s, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s.NetRBytesPS != 0 || s.NetTBytesPS != 0 {
		t.Errorf("wrapped counters produced rates %v / %v, want 0", s.NetRBytesPS, s.NetTBytesPS)
	}
}

func TestProcSourceMissingOptionalFiles(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("proc fixture layout assumes linux-style paths")
	}
	dir := t.TempDir()
	writeFixture(t, dir, map[string]string{
		"loadavg": "0.1 0.2 0.3 1/1 1\n",
		"stat":    "cpu  10 0 10 80 0 0 0 0\n",
		"meminfo": "MemTotal: 1000 kB\nMemFree: 500 kB\n",
	})
	src := NewProcSource("bare", dir)
	s, err := src.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot with missing optional files: %v", err)
	}
	if s.MemTotal != 1000*1024 {
		t.Errorf("MemTotal = %d", s.MemTotal)
	}
}

func TestProcSourceMissingRequiredFile(t *testing.T) {
	src := NewProcSource("x", t.TempDir())
	if _, err := src.Snapshot(); err == nil {
		t.Error("Snapshot succeeded without loadavg")
	}
}

func TestProcSourceOnRealProc(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("requires a live /proc")
	}
	if _, err := os.Stat("/proc/loadavg"); err != nil {
		t.Skip("no /proc available")
	}
	src := NewProcSource("localhost", "/proc")
	s, err := src.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot(/proc): %v", err)
	}
	if s.MemTotal == 0 {
		t.Error("real /proc reported zero total memory")
	}
	sum := s.CPUUser + s.CPUNice + s.CPUSystem + s.CPUIdle
	if sum < 0.5 || sum > 1.5 {
		t.Errorf("cpu fractions sum to %v, expected near 1 (idle+user+sys+nice only)", sum)
	}
}
