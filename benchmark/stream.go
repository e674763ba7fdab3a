package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"time"

	"smartsock/internal/netbatch"
	"smartsock/internal/proto"
	"smartsock/internal/status"
)

const (
	stormWindow  = 32                     // requests kept in flight
	stormTimeout = 250 * time.Millisecond // a reply later than this is a failed op, not a resend
	replyHeader  = 9                      // tag, seq, server count, error length
)

// stormClient keeps a window of requests in flight on one UDP socket
// through netbatch.Conn, the way a storm of ping-pong clients looks to
// the wizard's socket. It allocates nothing per request: datagrams are
// pre-marshalled with the sequence number patched in, and a reply is
// verified by comparing its bytes with a reply for the same text that
// was checked host by host when the client was built (the table does not
// change under a stream, so the answer may not either).
type stormClient struct {
	udp  *net.UDPConn
	ep   *netbatch.Conn
	tmpl [][]byte // one request datagram per text
	want [][]byte // the verified reply to it, after the sequence number
	tx   []netbatch.Message
	rx   []netbatch.Message
	slot [stormWindow]int // text index of each in-flight request
	seq  uint32
	next int
}

// newStormClient dials the wizard and learns the reply to each text with
// one fully checked exchange.
func newStormClient(wizardAddr string, reqs []requirement, fleet []status.ServerStatus, seq0 uint32) (*stormClient, error) {
	raddr, err := net.ResolveUDPAddr("udp", wizardAddr)
	if err != nil {
		return nil, err
	}
	udp, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	c := &stormClient{udp: udp, seq: seq0}
	if c.ep, err = netbatch.Wrap(udp, netbatch.Options{Batch: stormWindow}); err != nil {
		_ = udp.Close()
		return nil, err
	}
	c.tx = netbatch.NewBatch(stormWindow, 512)
	c.rx = netbatch.NewBatch(stormWindow, 2048)
	lookup := lookupIn(fleet)
	buf := make([]byte, 2048)
	for i := range reqs {
		r := &reqs[i]
		c.seq++
		d := proto.MarshalRequest(&proto.Request{Seq: c.seq, ServerNum: uint16(r.n), Option: r.opt, Detail: r.text})
		c.tmpl = append(c.tmpl, d)
		if err := udp.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
			return nil, errors.Join(err, c.close())
		}
		if _, err := udp.Write(d); err != nil {
			return nil, errors.Join(err, c.close())
		}
		n, err := udp.Read(buf)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("learning the reply to text %d: %w", i, err), c.close())
		}
		reply, err := proto.UnmarshalReply(buf[:n])
		if err == nil && reply.Seq != c.seq {
			err = fmt.Errorf("reply seq %d, sent %d", reply.Seq, c.seq)
		}
		if err == nil && reply.Err != "" {
			err = errors.New(reply.Err)
		}
		if err == nil {
			err = r.check(reply.Servers, lookup)
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("text %d: %w", i, err), c.close())
		}
		c.want = append(c.want, append([]byte(nil), buf[5:n]...))
	}
	if err := udp.SetDeadline(time.Time{}); err != nil {
		return nil, errors.Join(err, c.close())
	}
	return c, nil
}

func (c *stormClient) close() error { return c.udp.Close() }

// step sends one window and collects its replies; each request is one op.
func (c *stormClient) step(rec *recorder) {
	root := rec.tr.begin("op")
	defer rec.tr.end(root)
	for i := range c.tx {
		k := c.next
		c.next = (c.next + 1) % len(c.tmpl)
		c.slot[i] = k
		b := append(c.tx[i].Buf[:0], c.tmpl[k]...)
		binary.BigEndian.PutUint32(b[1:], c.seq+uint32(i))
		c.tx[i].Buf = b
	}
	sp := rec.tr.begin("netbatch.WriteBatch")
	t0 := time.Now()
	sent, err := c.ep.WriteBatch(c.tx)
	rec.tr.end(sp)
	var seen uint32
	if err == nil && sent == stormWindow {
		err = c.udp.SetReadDeadline(t0.Add(stormTimeout))
	}
	for err == nil && seen != 1<<stormWindow-1 {
		var n int
		sp = rec.tr.begin("netbatch.ReadBatch+wait")
		n, err = c.ep.ReadBatch(c.rx)
		rec.tr.end(sp)
		now := time.Now()
		sp = rec.tr.begin("harness.verify")
		for _, m := range c.rx[:n] {
			if len(m.Buf) < replyHeader {
				continue
			}
			i := binary.BigEndian.Uint32(m.Buf[1:]) - c.seq
			if i >= stormWindow || seen&(1<<i) != 0 {
				continue // a straggler from a window that already timed out
			}
			seen |= 1 << i
			if bytes.Equal(m.Buf[5:], c.want[c.slot[i]]) {
				rec.ok(now.Sub(t0))
			} else {
				rec.fail("storm reply differs from the verified one")
			}
		}
		rec.tr.end(sp)
	}
	for i := bits.OnesCount32(seen); i < stormWindow; i++ {
		rec.fail(fmt.Sprintf("no reply within %v (%v)", stormTimeout, err))
	}
	c.seq += stormWindow
}
