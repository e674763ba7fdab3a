package wizard

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"smartsock/internal/core"
	"smartsock/internal/proto"
	"smartsock/internal/reqlang"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
)

func testSelector(t testing.TB) (*core.Selector, *store.DB) {
	t.Helper()
	db := store.New()
	db.PutSys(sysinfo.Idle("fastbox", 4771, 512))
	db.PutSys(sysinfo.Idle("slowbox", 1730, 128))
	sel, err := core.New(db, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return sel, db
}

// startWizard builds a wizard, applies hooks to it and runs it until the
// test ends.
func startWizard(t testing.TB, cfg Config, hooks ...func(*Wizard)) *Wizard {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, hook := range hooks {
		hook(w)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go w.Run(ctx)
	t.Cleanup(cancel)
	return w
}

// uncached turns the wizard's requirement cache off before Run, so every
// request re-parses its requirement: the seed's serving.
func uncached(w *Wizard) { w.cache = reqlang.NewCacheObs(0, w.cfg.Obs) }

// ask sends one request datagram and decodes the reply.
func ask(t *testing.T, addr string, req *proto.Request) *proto.Reply {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(proto.MarshalRequest(req)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no reply: %v", err)
	}
	reply, err := proto.UnmarshalReply(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

func TestWizardAnswersOverUDP(t *testing.T) {
	sel, _ := testSelector(t)
	w := startWizard(t, Config{Selector: sel})
	reply := ask(t, w.Addr(), &proto.Request{
		Seq:       777,
		ServerNum: 1,
		Detail:    "host_cpu_bogomips > 4000",
	})
	if reply.Seq != 777 {
		t.Errorf("Seq = %d, want 777", reply.Seq)
	}
	if reply.Err != "" {
		t.Fatalf("wizard error: %s", reply.Err)
	}
	if !reflect.DeepEqual(reply.Servers, []string{"fastbox"}) {
		t.Errorf("Servers = %v", reply.Servers)
	}
	if w.Handled() != 1 {
		t.Errorf("Handled = %d", w.Handled())
	}
}

func TestWizardReportsParseErrors(t *testing.T) {
	sel, _ := testSelector(t)
	w := startWizard(t, Config{Selector: sel})
	reply := ask(t, w.Addr(), &proto.Request{Seq: 1, ServerNum: 1, Detail: "a <"})
	if reply.Err == "" {
		t.Error("expected a parse error in the reply")
	}
	if w.Rejected() != 1 {
		t.Errorf("Rejected = %d", w.Rejected())
	}
}

func TestWizardReportsShortfall(t *testing.T) {
	sel, _ := testSelector(t)
	w := startWizard(t, Config{Selector: sel})
	reply := ask(t, w.Addr(), &proto.Request{Seq: 2, ServerNum: 10, Detail: "host_cpu_free > 0.5"})
	if reply.Err == "" {
		t.Error("expected shortfall error without OptPartialOK")
	}
	reply = ask(t, w.Addr(), &proto.Request{
		Seq: 3, ServerNum: 10, Option: proto.OptPartialOK, Detail: "host_cpu_free > 0.5",
	})
	if reply.Err != "" || len(reply.Servers) != 2 {
		t.Errorf("partial reply = %+v", reply)
	}
}

func TestWizardTemplates(t *testing.T) {
	sel, _ := testSelector(t)
	w := startWizard(t, Config{
		Selector: sel,
		Templates: map[string]string{
			"cpu-intensive": "host_cpu_bogomips > 4000\nhost_cpu_free > 0.9\n",
		},
	})
	reply := ask(t, w.Addr(), &proto.Request{
		Seq: 4, ServerNum: 1, Option: proto.OptTemplate, Detail: "cpu-intensive",
	})
	if reply.Err != "" {
		t.Fatalf("template request failed: %s", reply.Err)
	}
	if !reflect.DeepEqual(reply.Servers, []string{"fastbox"}) {
		t.Errorf("Servers = %v", reply.Servers)
	}
	reply = ask(t, w.Addr(), &proto.Request{
		Seq: 5, ServerNum: 1, Option: proto.OptTemplate, Detail: "no-such-template",
	})
	if reply.Err == "" {
		t.Error("unknown template accepted")
	}
}

func TestWizardDistributedModeCallsUpdate(t *testing.T) {
	sel, db := testSelector(t)
	var updates atomic.Int32
	w := startWizard(t, Config{
		Selector: sel,
		Update: func(ctx context.Context) error {
			updates.Add(1)
			// Simulate a pull that delivers one more server.
			db.PutSys(sysinfo.Idle("latecomer", 9000, 1024))
			return nil
		},
	})
	reply := ask(t, w.Addr(), &proto.Request{Seq: 6, ServerNum: 1, Detail: "host_cpu_bogomips > 8000"})
	if reply.Err != "" {
		t.Fatalf("wizard error: %s", reply.Err)
	}
	if !reflect.DeepEqual(reply.Servers, []string{"latecomer"}) {
		t.Errorf("Servers = %v: update result not visible to matching", reply.Servers)
	}
	if updates.Load() != 1 {
		t.Errorf("updates = %d, want 1 per request", updates.Load())
	}
}

func TestWizardIgnoresGarbageDatagrams(t *testing.T) {
	sel, _ := testSelector(t)
	w := startWizard(t, Config{Selector: sel})
	conn, err := net.Dial("udp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("garbage"))
	// The wizard must still answer a valid request afterwards.
	reply := ask(t, w.Addr(), &proto.Request{Seq: 9, ServerNum: 1, Detail: "1 > 0"})
	if reply.Err != "" || len(reply.Servers) != 1 {
		t.Errorf("reply after garbage = %+v", reply)
	}
}

func TestAnswerSanitizesErrors(t *testing.T) {
	sel, _ := testSelector(t)
	w, err := New(Config{Addr: "127.0.0.1:0", Selector: sel})
	if err != nil {
		t.Fatal(err)
	}
	reply := w.Answer(context.Background(), &proto.Request{Seq: 1, ServerNum: 1, Detail: "a <\nb <"})
	if reply.Err == "" {
		t.Fatal("expected error")
	}
	if got, err := proto.MarshalReply(reply); err != nil || got == nil {
		t.Errorf("sanitized reply not marshalable: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Addr: "127.0.0.1:0"}); err == nil {
		t.Error("accepted nil selector")
	}
}

func TestWizardHandlesConcurrentClients(t *testing.T) {
	// The wizard serves requests sequentially (§3.6.1), but many
	// clients may fire at once; every one must get its own reply with
	// its own sequence number.
	sel, _ := testSelector(t)
	w := startWizard(t, Config{Selector: sel})
	const clients = 20
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			conn, err := net.Dial("udp", w.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			req := &proto.Request{Seq: uint32(1000 + i), ServerNum: 1,
				Option: proto.OptPartialOK, Detail: "host_cpu_free > 0.5"}
			if _, err := conn.Write(proto.MarshalRequest(req)); err != nil {
				errs <- err
				return
			}
			buf := make([]byte, 4096)
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := conn.Read(buf)
			if err != nil {
				errs <- err
				return
			}
			reply, err := proto.UnmarshalReply(buf[:n])
			if err != nil {
				errs <- err
				return
			}
			if reply.Seq != uint32(1000+i) {
				errs <- fmt.Errorf("client %d got seq %d", i, reply.Seq)
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if w.Handled() != clients {
		t.Errorf("Handled = %d, want %d", w.Handled(), clients)
	}
}
