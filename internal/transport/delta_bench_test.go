package transport

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"smartsock/internal/status"
	"smartsock/internal/store"
	"smartsock/internal/sysinfo"
)

// memConn is an in-memory net.Conn: the transmitter's writes land in
// a buffer the receiver then drains, so one push epoch can be
// measured end to end without a socket in the timing loop.
type memConn struct{ *bytes.Buffer }

func (memConn) Close() error                       { return nil }
func (memConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (memConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (memConn) SetDeadline(t time.Time) error      { return nil }
func (memConn) SetReadDeadline(t time.Time) error  { return nil }
func (memConn) SetWriteDeadline(t time.Time) error { return nil }

// benchFleet fills a store with n hosts and returns the statuses so a
// mutation function can re-report or change them.
func benchFleet(n int) (*store.DB, []status.ServerStatus) {
	db := store.New()
	fleet := make([]status.ServerStatus, n)
	for i := range fleet {
		fleet[i] = sysinfo.Idle(fmt.Sprintf("node-%04d", i), 1000+float64(i%7)*500, 256)
		db.PutSys(fleet[i])
	}
	return db, fleet
}

// BenchmarkTransportEpoch measures one centralized-mode status epoch
// end to end — transmitter encode, wire bytes, receiver apply — for a
// 1000-host fleet. The full-* variants run the thesis protocol (a
// complete three-frame snapshot every epoch); the delta-* variants
// run the delta protocol against three workloads: an idle fleet (no
// probe reports at all), a fleet whose probes re-report identical
// content (refresh), and a fleet where 1% of hosts change per epoch.
// scripts/bench.sh turns these into BENCH_transport.json.
func BenchmarkTransportEpoch(b *testing.B) {
	const fleetSize = 1000
	refreshAll := func(db *store.DB, fleet []status.ServerStatus, _ int) {
		for i := range fleet {
			db.PutSys(fleet[i])
		}
	}
	onePercent := func(db *store.DB, fleet []status.ServerStatus, epoch int) {
		n := len(fleet) / 100
		for j := 0; j < n; j++ {
			s := fleet[(epoch*n+j)%len(fleet)]
			s.Load1 = float64(epoch + 1)
			db.PutSys(s)
		}
	}
	cases := []struct {
		name   string
		compat bool
		mutate func(*store.DB, []status.ServerStatus, int)
	}{
		{"full-1000h", true, refreshAll},
		{"delta-idle-1000h", false, nil},
		{"delta-refresh-1000h", false, refreshAll},
		{"delta-1pct-1000h", false, onePercent},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			src, fleet := benchFleet(fleetSize)
			tx, err := NewTransmitterObs(src, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			tx.Compat = tc.compat
			recv, err := NewReceiverObs(store.New(), "127.0.0.1:0", nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			recv.Compat = tc.compat
			conn := memConn{new(bytes.Buffer)}
			var sess pushSession
			s := source{lag: recv.lagFor("bench")}
			var wire int64
			epoch := func(e int) {
				if err := tx.pushEpoch(conn, &sess); err != nil {
					b.Fatal(err)
				}
				wire += int64(conn.Len())
				for conn.Len() > 0 {
					if err := recv.readEpoch(conn, &s); err != nil {
						b.Fatal(err)
					}
					recv.applyEpoch(&s)
					s.release()
				}
			}
			// Prime the stream: the first epoch is always a full
			// snapshot; steady state is what the benchmark measures.
			epoch(0)
			wire = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.mutate != nil {
					tc.mutate(src, fleet, i)
				}
				epoch(i)
			}
			b.ReportMetric(float64(wire)/float64(b.N), "bytes/epoch")
		})
	}
}
