package probe

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"smartsock/internal/status"
	"smartsock/internal/sysinfo"
)

// udpSink captures datagrams sent to it.
func udpSink(t *testing.T) (*net.UDPConn, chan []byte) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	ch := make(chan []byte, 64)
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				close(ch)
				return
			}
			msg := make([]byte, n)
			copy(msg, buf[:n])
			ch <- msg
		}
	}()
	return conn, ch
}

func recvReport(t *testing.T, ch chan []byte) *status.ServerStatus {
	t.Helper()
	select {
	case msg := <-ch:
		s, err := status.DecodeReport(msg)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return s
	case <-time.After(2 * time.Second):
		t.Fatal("no report arrived")
		return nil
	}
}

func TestReportOnceSendsDecodableReport(t *testing.T) {
	sink, ch := udpSink(t)
	p, err := New(Config{
		Source:  sysinfo.NewSynthetic(sysinfo.Idle("probe-test", 2500, 256)),
		Monitor: sink.LocalAddr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReportOnce(); err != nil {
		t.Fatal(err)
	}
	s := recvReport(t, ch)
	if s.Host != "probe-test" || s.Bogomips != 2500 {
		t.Errorf("report = %+v", s)
	}
	// The next report goes out on the same socket: no dial per report.
	kept := p.conn
	if err := p.ReportOnce(); err != nil {
		t.Fatal(err)
	}
	recvReport(t, ch)
	if kept == nil || p.conn != kept {
		t.Error("the second report did not reuse the probe's socket")
	}
}

func TestRunReportsPeriodicallyAndStops(t *testing.T) {
	sink, ch := udpSink(t)
	p, err := New(Config{
		Source:   sysinfo.NewSynthetic(sysinfo.Idle("ticker", 1000, 128)),
		Monitor:  sink.LocalAddr().String(),
		Interval: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()

	// First report goes out immediately; more follow.
	recvReport(t, ch)
	recvReport(t, ch)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

func TestReportOnceSourceError(t *testing.T) {
	sink, _ := udpSink(t)
	p, err := New(Config{
		Source:  failingSource{},
		Monitor: sink.LocalAddr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReportOnce(); err == nil {
		t.Error("source error swallowed")
	}
	if p.conn != nil {
		t.Error("failed scan opened the report socket")
	}
}

type failingSource struct{}

func (failingSource) Snapshot() (status.ServerStatus, error) {
	return status.ServerStatus{}, errors.New("synthetic failure")
}

func TestTCPTransportRefusedConnection(t *testing.T) {
	p, err := New(Config{
		Source:    sysinfo.NewSynthetic(sysinfo.Idle("x", 1, 1)),
		Monitor:   "127.0.0.1:1", // nothing listens
		Transport: TCP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReportOnce(); err == nil {
		t.Error("TCP report to a dead monitor succeeded")
	}
}

func TestTransportString(t *testing.T) {
	if UDP.String() != "udp" || TCP.String() != "tcp" {
		t.Error("Transport.String misbehaves")
	}
}

func TestDefaultInterval(t *testing.T) {
	p, err := New(Config{
		Source:  sysinfo.NewSynthetic(sysinfo.Idle("x", 1, 1)),
		Monitor: "127.0.0.1:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Interval != 5*time.Second {
		t.Errorf("default interval = %v, thesis default is 5 s", p.cfg.Interval)
	}
}
