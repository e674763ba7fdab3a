package wizard

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"smartsock/internal/core"
	"smartsock/internal/proto"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
)

func TestSanitizeFastPath(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain error text", "plain error text"},
		{"", ""},
		{"line\nbreak", "line break"},
		{"\n\n", "  "},
		{"tail\n", "tail "},
	}
	for _, tc := range cases {
		if got := sanitize(tc.in); got != tc.want {
			t.Errorf("sanitize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// The common case — no newline — must return the input without
	// copying.
	in := "parse requirement: line 2: unexpected token"
	allocs := testing.AllocsPerRun(100, func() {
		if out := sanitize(in); out != in {
			t.Fatalf("sanitize changed a clean string: %q", out)
		}
	})
	if allocs != 0 {
		t.Errorf("sanitize allocates %.1f times on newline-free input, want 0", allocs)
	}
}

func TestNewRejectsNegativeWorkers(t *testing.T) {
	sel, _ := testSelector(t)
	if _, err := New(Config{Addr: "127.0.0.1:0", Selector: sel, Workers: -1}); err == nil {
		t.Fatal("New accepted Workers: -1")
	}
}

func TestAnswerUsesRequirementCache(t *testing.T) {
	sel, _ := testSelector(t)
	w := startWizard(t, Config{Selector: sel})
	req := &proto.Request{Seq: 1, ServerNum: 1, Detail: "host_cpu_bogomips > 3000\n"}
	for i := 0; i < 3; i++ {
		if reply := w.Answer(context.Background(), req); reply.Err != "" {
			t.Fatalf("answer %d: %s", i, reply.Err)
		}
	}
	hits, misses := w.CacheStats()
	if misses != 1 || hits != 2 {
		t.Errorf("cache stats = %d hits / %d misses, want 2/1", hits, misses)
	}
}

func TestCacheDisabledStillAnswers(t *testing.T) {
	sel, _ := testSelector(t)
	w := startWizard(t, Config{Selector: sel, CacheSize: -1})
	req := &proto.Request{Seq: 1, ServerNum: 1, Detail: "host_cpu_bogomips > 3000\n"}
	for i := 0; i < 2; i++ {
		if reply := w.Answer(context.Background(), req); reply.Err != "" {
			t.Fatalf("answer %d: %s", i, reply.Err)
		}
	}
	if hits, misses := w.CacheStats(); hits != 0 || misses != 2 {
		t.Errorf("disabled cache stats = %d hits / %d misses, want 0/2", hits, misses)
	}
}

func TestReloadTemplatesSwapsAndPurges(t *testing.T) {
	sel, _ := testSelector(t)
	w := startWizard(t, Config{
		Selector:  sel,
		Templates: map[string]string{"fast": "host_cpu_bogomips > 3000\n"},
	})
	req := &proto.Request{Seq: 1, ServerNum: 1, Option: proto.OptTemplate, Detail: "fast"}
	for i := 0; i < 2; i++ { // miss, then hit
		if reply := w.Answer(context.Background(), req); reply.Err != "" {
			t.Fatalf("before reload: %s", reply.Err)
		}
	}

	// Reload keeps "fast" with the same body: the requirement text is
	// unchanged, so only the purge can force a re-compile.
	w.ReloadTemplates(map[string]string{
		"fast":  "host_cpu_bogomips > 3000\n",
		"roomy": "host_memory_free > 100\n",
	})
	if reply := w.Answer(context.Background(), req); reply.Err != "" {
		t.Fatalf("after reload: %s", reply.Err)
	}
	if reply := w.Answer(context.Background(), &proto.Request{
		Seq: 2, ServerNum: 1, Option: proto.OptTemplate, Detail: "roomy",
	}); reply.Err != "" {
		t.Fatalf("new template: %s", reply.Err)
	}
	// 1 hit before the reload; the purge made "fast" a miss again.
	if hits, misses := w.CacheStats(); hits != 1 || misses != 3 {
		t.Errorf("cache stats after reload = %d hits / %d misses, want 1/3", hits, misses)
	}

	// A template dropped by a reload stops answering.
	w.ReloadTemplates(map[string]string{"roomy": "host_memory_free > 100\n"})
	if reply := w.Answer(context.Background(), req); reply.Err == "" {
		t.Fatal("dropped template still answered after reload")
	}
}

// TestWorkerPoolConcurrentAnswerAndStats is the fast path's race
// test: many goroutines call Answer (some through templates, some
// with parse errors) while others read every stats surface. Run with
// -race this covers the cache, the template pointer and the counters.
func TestWorkerPoolConcurrentAnswerAndStats(t *testing.T) {
	db := store.New()
	for i := 0; i < 8; i++ {
		db.PutSys(sysinfo.Idle(fmt.Sprintf("host%d", i), float64(2000+i*500), 512))
	}
	sel, err := core.New(db, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := startWizard(t, Config{
		Selector:  sel,
		Workers:   8,
		Templates: map[string]string{"fast": "host_cpu_bogomips > 2500\n"},
	})

	reqs := []*proto.Request{
		{Seq: 1, ServerNum: 2, Detail: "host_cpu_bogomips > 3000\n"},
		{Seq: 2, ServerNum: 1, Detail: "host_memory_free > 5\nhost_cpu_free > 0.5\n"},
		{Seq: 3, ServerNum: 1, Option: proto.OptTemplate, Detail: "fast"},
		{Seq: 4, ServerNum: 1, Detail: "host_cpu_free >\n"}, // parse error
	}
	const (
		goroutines = 8
		perG       = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := reqs[(g+i)%len(reqs)]
				reply := w.Answer(context.Background(), req)
				if req.Seq == 4 && reply.Err == "" {
					t.Error("parse error answered without Err")
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w.Handled()
			w.Rejected()
			w.Stats()
			if hits, _ := w.CacheStats(); hits > uint64(goroutines*perG) {
				t.Error("cache hits exceed requests")
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	hits, misses := w.CacheStats()
	if total := goroutines * perG; hits+misses != uint64(total) {
		t.Errorf("cache saw %d compiles for %d requests", hits+misses, total)
	}
	// Every requirement text is distinct, so exactly len(reqs) misses.
	if misses != uint64(len(reqs)) {
		t.Errorf("%d cache misses, want %d", misses, len(reqs))
	}
}

// TestWorkerPoolOverUDP drives the full datagram path with Workers: 8
// and concurrent clients; every request must get exactly one reply
// with its own sequence number.
func TestWorkerPoolOverUDP(t *testing.T) {
	sel, _ := testSelector(t)
	w := startWizard(t, Config{Selector: sel, Workers: 8})
	const clients, perClient = 8, 20
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			conn, err := net.Dial("udp", w.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			buf := make([]byte, 64*1024)
			for i := 0; i < perClient; i++ {
				seq := uint32(c*1000 + i)
				req := &proto.Request{
					Seq:       seq,
					ServerNum: 1,
					Detail:    fmt.Sprintf("host_cpu_bogomips > %d\n", 1000+(c+i)%5),
				}
				if _, err := conn.Write(proto.MarshalRequest(req)); err != nil {
					errs <- err
					return
				}
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				n, err := conn.Read(buf)
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				reply, err := proto.UnmarshalReply(buf[:n])
				if err != nil {
					errs <- err
					return
				}
				if reply.Seq != seq {
					errs <- fmt.Errorf("client %d got reply for seq %d, want %d", c, reply.Seq, seq)
					return
				}
				if reply.Err != "" {
					errs <- fmt.Errorf("client %d: %s", c, reply.Err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got, want := w.Handled(), uint64(clients*perClient); got != want {
		t.Errorf("Handled = %d, want %d", got, want)
	}
}
