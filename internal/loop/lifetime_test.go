package loop_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"smartsock/internal/bwest"
	"smartsock/internal/core"
	"smartsock/internal/monitor"
	"smartsock/internal/netmon"
	"smartsock/internal/obs"
	"smartsock/internal/probe"
	"smartsock/internal/proto"
	"smartsock/internal/secmon"
	"smartsock/internal/status"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
	"smartsock/internal/transport"
	"smartsock/internal/wizard"
)

// field reads the unexported field name of the struct x points to. The
// failure a row injects is a read deadline in the past on the
// component's own socket, which no component hands out.
func field[T any](x any, name string) T {
	v := reflect.ValueOf(x).Elem().FieldByName(name)
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem().Interface().(T)
}

// past is a deadline already gone: the next read or accept fails with
// os.ErrDeadlineExceeded, an error that is neither a close nor the
// context's.
var past = time.Now().Add(-time.Second)

// lifetime is one started component as the contract table drives it.
type lifetime struct {
	run     func(context.Context) error
	serving func(t *testing.T) // returns once Run serves; holds nothing open
	fail    func(t *testing.T) // makes Run's next read fail; nil where only a new hook could
}

// rtt is a netmon prober that answers at once.
type rtt struct{}

func (rtt) ProbeRTT(int) time.Duration { return time.Millisecond }

// waitUntil fails the test if cond stays false for 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not after 5s", what)
		}
	}
}

// exchange writes msg to addr over network and reads one reply.
func exchange(t *testing.T, network, addr string, msg []byte) {
	t.Helper()
	c, err := net.Dial(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 64*1024)); err != nil {
		t.Fatalf("no reply from %s: %v", addr, err)
	}
}

// TestComponentLifetime holds every component with a Run to one
// contract (DESIGN.md "Component lifetime"). A cancel ends Run within a
// bound with nil or the context's own error. A failure of its own —
// where one can be injected — ends Run with that failure, not with
// context.Canceled, under a context still live. Either way the
// descriptors are back at baseline the moment Run returns, and the
// goroutines are soon after.
func TestComponentLifetime(t *testing.T) {
	if openFDs() < 0 {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	// Fixtures outlive every row: the probe reports into sink, the
	// active transmitter pushes to pushes.
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	pushes, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pushes.Close()
	report := sysinfo.Idle("h1", 2000, 256)

	rows := []struct {
		name  string
		start func(t *testing.T) lifetime
	}{
		{"probe", func(t *testing.T) lifetime {
			p, err := probe.New(probe.Config{Source: sysinfo.NewSynthetic(report), Monitor: sink.LocalAddr().String(), Interval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			return lifetime{run: p.Run, serving: func(t *testing.T) {
				if err := sink.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
					t.Fatal(err)
				}
				if _, _, err := sink.ReadFrom(make([]byte, 64*1024)); err != nil {
					t.Fatalf("no report: %v", err)
				}
			}}
		}},
		{"monitor", func(t *testing.T) lifetime {
			db := store.New()
			m, err := monitor.New(monitor.Config{Addr: "127.0.0.1:0", DB: db, EnableTCP: true, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			if m.Shards() != 2 {
				t.Skip("no SO_REUSEPORT: one shard cannot fail beside another")
			}
			return lifetime{run: m.Run,
				serving: func(t *testing.T) {
					c, err := net.Dial("udp", m.Addr())
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					waitUntil(t, "report ingested", func() bool {
						_, _ = c.Write(status.EncodeReport(&report))
						return db.SysLen() == 1
					})
				},
				fail: func(t *testing.T) {
					if err := field[[]*net.UDPConn](m, "shards")[0].SetReadDeadline(past); err != nil {
						t.Fatal(err)
					}
				}}
		}},
		{"netmon", func(t *testing.T) lifetime {
			m, err := netmon.New(netmon.Config{Name: "nm", Peers: []netmon.Peer{{Name: "p", Prober: rtt{}, MTU: 1500}}, DB: store.New(), Interval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			return lifetime{run: m.Run, serving: func(t *testing.T) {
				waitUntil(t, "probe round", func() bool { return m.Rounds() > 0 })
			}}
		}},
		{"secmon", func(t *testing.T) lifetime {
			db := store.New()
			m, err := secmon.New(secmon.Config{Agent: secmon.StaticAgent{{Host: "h1", Level: 3}}, DB: db, Interval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			return lifetime{run: m.Run, serving: func(t *testing.T) {
				waitUntil(t, "scan", func() bool { return db.SecLen() == 1 })
			}}
		}},
		{"transmitter RunActive", func(t *testing.T) lifetime {
			tx, err := transport.NewTransmitterObs(store.New(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			run := func(ctx context.Context) error { return tx.RunActive(ctx, pushes.Addr().String(), time.Hour) }
			return lifetime{run: run, serving: func(t *testing.T) {
				if err := pushes.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
					t.Fatal(err)
				}
				c, err := pushes.Accept()
				if err != nil {
					t.Fatalf("no push: %v", err)
				}
				defer c.Close()
				if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
					t.Fatalf("no epoch: %v", err)
				}
			}}
		}},
		{"transmitter ServePassive", func(t *testing.T) lifetime {
			tx, err := transport.NewTransmitterObs(store.New(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var pull bytes.Buffer // the thesis's empty request: a full snapshot back
			if err := status.WriteFrame(&pull, status.Frame{Type: status.TypeRequest}); err != nil {
				t.Fatal(err)
			}
			run := func(ctx context.Context) error { return tx.ServePassive(ctx, ln) }
			return lifetime{run: run,
				serving: func(t *testing.T) { exchange(t, "tcp", ln.Addr().String(), pull.Bytes()) },
				fail: func(t *testing.T) {
					if err := ln.(*net.TCPListener).SetDeadline(past); err != nil {
						t.Fatal(err)
					}
				}}
		}},
		{"receiver", func(t *testing.T) lifetime {
			r, err := transport.NewReceiverObs(store.New(), "127.0.0.1:0", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return lifetime{run: r.Run,
				serving: func(t *testing.T) {
					c, err := net.Dial("tcp", r.Addr())
					if err != nil {
						t.Fatal(err)
					}
					c.Close()
				},
				fail: func(t *testing.T) {
					if err := field[net.Listener](r, "ln").(*net.TCPListener).SetDeadline(past); err != nil {
						t.Fatal(err)
					}
				}}
		}},
		{"wizard", func(t *testing.T) lifetime {
			sel, err := core.New(store.New(), core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			w, err := wizard.New(wizard.Config{Addr: "127.0.0.1:0", Selector: sel, Shards: 2, Batch: 8})
			if err != nil {
				t.Fatal(err)
			}
			return lifetime{run: w.Run,
				serving: func(t *testing.T) {
					exchange(t, "udp", w.Addr(), proto.MarshalRequest(&proto.Request{Seq: 1, ServerNum: 1, Detail: "1 > 0"}))
				},
				fail: func(t *testing.T) {
					if err := field[[]*net.UDPConn](w, "shards")[0].SetReadDeadline(past); err != nil {
						t.Fatal(err)
					}
				}}
		}},
		{"echo server", func(t *testing.T) lifetime {
			e, err := bwest.NewEchoServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return lifetime{run: e.Run,
				serving: func(t *testing.T) { exchange(t, "udp", e.Addr(), make([]byte, 64)) },
				fail: func(t *testing.T) {
					if err := field[*net.UDPConn](e, "conn").SetReadDeadline(past); err != nil {
						t.Fatal(err)
					}
				}}
		}},
		{"debug server", func(t *testing.T) lifetime {
			// http.Server retries an accept that times out, so only a
			// cancel ends this one.
			d, err := obs.NewDebugServer("127.0.0.1:0", obs.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			return lifetime{run: d.Run, serving: func(t *testing.T) {
				exchange(t, "tcp", d.Addr(), []byte("GET /metrics HTTP/1.0\r\n\r\n"))
			}}
		}},
	}
	for _, row := range rows {
		for _, end := range []string{"cancel", "own failure"} {
			t.Run(fmt.Sprintf("%s/%s", row.name, end), func(t *testing.T) {
				// The first socket of a process also opens the poller's
				// descriptors: have that behind us before counting.
				warm, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				warm.Close()
				goroutines, fds := runtime.NumGoroutine(), openFDs()

				c := row.start(t)
				if end == "own failure" && c.fail == nil {
					t.Skip("no failure to inject without a new hook")
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				returned := make(chan error, 1)
				go func() { returned <- c.run(ctx) }()
				c.serving(t)
				if end == "cancel" {
					cancel()
				} else {
					c.fail(t)
				}
				var ret error
				select {
				case ret = <-returned:
				case <-time.After(5 * time.Second):
					cancel()
					t.Fatalf("Run still serving 5 s after the %s", end)
				}
				if got := openFDs(); got > fds {
					t.Errorf("Run returned with %d descriptors open, %d before it", got, fds)
				}
				t.Logf("Run = %v", ret)
				switch {
				case end == "cancel" && ret != nil && !errors.Is(ret, context.Canceled):
					t.Errorf("Run after a cancel = %v, want nil or context.Canceled", ret)
				case end == "own failure" && (!errors.Is(ret, os.ErrDeadlineExceeded) || errors.Is(ret, context.Canceled)):
					t.Errorf("Run after its read failed = %v, want that failure and not context.Canceled (the context's Err is %v)", ret, ctx.Err())
				}
				cancel()
				for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("Run returned and left %d goroutines, %d before it", runtime.NumGoroutine(), goroutines)
					}
				}
			})
		}
	}
}
