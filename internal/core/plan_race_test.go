package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"smartsock/internal/obs"
	"smartsock/internal/proto"
	"smartsock/internal/reqlang"
	"smartsock/internal/status"
	"smartsock/internal/store"
)

// TestSelectConcurrentChurn storms planned selections from several
// goroutines while a writer churns the table underneath them — puts,
// security updates, expiries, and periodic whole-table Loads that
// force the index down its resync path. Run under -race this pins the
// index's locking discipline: no torn candidate sets, no snapshot
// served across an epoch boundary. Afterwards the observability
// counters must reconcile with each other.
func TestSelectConcurrentChurn(t *testing.T) {
	reg := obs.NewRegistry()
	db := store.New()
	sel, err := New(db, Config{
		Obs:           reg,
		PlanThreshold: 1,
		MaxStatusAge:  time.Hour, // keeps selections impure so the memo never shortcuts
		ServicePort:   9000,
	})
	if err != nil {
		t.Fatal(err)
	}

	seed := func(n int) []status.ServerStatus {
		recs := make([]status.ServerStatus, n)
		for i := range recs {
			recs[i] = status.ServerStatus{
				Host:    fmt.Sprintf("storm-%03d", i),
				Load1:   float64(i % 7),
				CPUIdle: float64(i%11) / 10,
				MemFree: uint64(i%5) << 20,
			}
		}
		return recs
	}
	db.Load(seed(200), nil, nil)

	corpus := make([]*reqlang.Program, 0, 4)
	for _, src := range []string{
		"host_system_load1 < 3\n",
		"host_cpu_free > 0.5\nhost_system_load1 * -1\n",
		"host_security_level >= 2\n",
		"host_memory_free > 1 && host_system_load1 < 5\n",
		// Host lists resolve against each selection's own snapshot while
		// joins and expiries rebuild the selector's alias list.
		"host_system_load1 < 5\nuser_denied_host1 = \"STORM-001\"\nuser_preferred_host1 = \"storm-002:1\"\n",
	} {
		p, err := reqlang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, p)
	}

	const (
		readers    = 4
		selectsPer = 300
	)
	var readersWg, writerWg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: mutate every few microseconds; occasionally Load a fresh
	// table, which resets retained history and forces a resync.
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		rng := rand.New(rand.NewSource(1))
		for step := 0; ; step++ {
			select {
			case <-stop:
				return
			default:
			}
			switch step % 10 {
			case 9:
				db.Load(seed(150+rng.Intn(100)), nil, nil)
			case 8:
				// Old records only: the table must stay above the plan
				// threshold so every selection runs under plan semantics.
				db.ExpireSys(time.Second)
			case 6:
				db.PutSys(status.ServerStatus{Host: fmt.Sprintf("Storm-%03d:7000", rng.Intn(50)), CPUIdle: 0.9})
			case 7:
				db.PutSec(status.SecLevel{Host: fmt.Sprintf("storm-%03d", rng.Intn(200)), Level: rng.Intn(5)})
			default:
				db.PutSys(status.ServerStatus{
					Host:    fmt.Sprintf("storm-%03d", rng.Intn(250)),
					Load1:   float64(rng.Intn(7)),
					CPUIdle: rng.Float64(),
					MemFree: uint64(rng.Intn(5)) << 20,
				})
			}
		}
	}()

	for r := 0; r < readers; r++ {
		readersWg.Add(1)
		go func(r int) {
			defer readersWg.Done()
			for i := 0; i < selectsPer; i++ {
				prog := corpus[(r+i)%len(corpus)]
				res, err := sel.Select(prog, 3, proto.OptPartialOK)
				if err != nil {
					t.Errorf("reader %d select %d: %v", r, i, err)
					return
				}
				// A planned result never reports more pruned+stale+decided
				// records than a table could hold; a torn candidate set
				// shows up here as nonsense counts.
				if res.Pruned < 0 || res.StaleDropped < 0 || len(res.Servers) > 3 {
					t.Errorf("reader %d: malformed result %+v", r, res)
					return
				}
				if slices.Contains(res.Servers, "storm-001:9000") && len(prog.UserParams()) > 0 {
					t.Errorf("reader %d: the denied host was selected: %v", r, res.Servers)
					return
				}
			}
		}(r)
	}

	readersWg.Wait()
	close(stop)
	writerWg.Wait()

	c := reg.Snapshot().Counters
	totalSelects := uint64(readers * selectsPer)
	if c["core_selections"] != totalSelects {
		t.Errorf("core_selections = %d, want %d", c["core_selections"], totalSelects)
	}
	// Every selection ran under plan semantics (threshold 1, all corpus
	// entries index-resolvable), each served by index or fallback.
	if c["index_plans"] != totalSelects {
		t.Errorf("index_plans = %d, want %d", c["index_plans"], totalSelects)
	}
	if c["index_fallbacks"] > c["index_plans"] {
		t.Errorf("index_fallbacks %d exceeds index_plans %d", c["index_fallbacks"], c["index_plans"])
	}
	// Residual evaluations are a subset of all requirement evaluations.
	if c["index_residual_evals"] > c["core_record_evals"] {
		t.Errorf("residual evals %d exceed total record evals %d",
			c["index_residual_evals"], c["core_record_evals"])
	}
	t.Logf("plans=%d fallbacks=%d resyncs=%d pruned=%d residual=%d",
		c["index_plans"], c["index_fallbacks"], c["index_resyncs"],
		c["index_rows_pruned"], c["index_residual_evals"])
}
