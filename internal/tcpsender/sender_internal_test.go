package tcpsender

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"reorder/internal/netem"
	"reorder/internal/packet"
	"reorder/internal/sim"
)

// maxSegment is the largest payload NewTCPFrame accepts on an option-free
// TCP header: a 65535-byte datagram less 40 header bytes.
const maxSegment = 0xffff - 40

// harness drives one Sender directly: frames it transmits go to sink, and
// deliver feeds it a segment from the server side.
type harness struct {
	tb    testing.TB
	loop  *sim.Loop
	arena *netem.Arena
	ids   *netem.FrameIDs
	s     *Sender
	sent  []*netem.Frame // kept only when keep is set
	keep  bool
	nsent int
	ip    packet.IPv4Header
	hdr   packet.TCPHeader
}

var (
	clientAddr = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	serverAddr = netip.AddrFrom4([4]byte{10, 0, 0, 2})
)

func newHarness(tb testing.TB, cfg Config, keep bool) *harness {
	h := &harness{tb: tb, loop: sim.NewLoop(), arena: new(netem.Arena), ids: new(netem.FrameIDs), keep: keep}
	sink := netem.NodeFunc(func(f *netem.Frame) {
		h.nsent++
		if h.keep {
			h.sent = append(h.sent, f)
		}
	})
	h.s = New(h.loop, cfg, clientAddr, serverAddr, h.ids, sim.NewRand(1, 2), sink)
	h.s.SetArena(h.arena)
	h.ip = packet.IPv4Header{Src: serverAddr, Dst: clientAddr}
	h.hdr = packet.TCPHeader{SrcPort: 80, DstPort: 41000, Window: 65535}
	return h
}

func (h *harness) deliver(flags uint8, seq, ack uint32) {
	h.hdr.Flags, h.hdr.Seq, h.hdr.Ack = flags, seq, ack
	f, err := h.arena.NewTCPFrame(h.ids.Next(), h.loop.Now(), &h.ip, &h.hdr, nil)
	if err != nil {
		h.tb.Fatal(err)
	}
	h.s.Input(f)
}

// open starts the transfer and answers its SYN, establishing the
// connection (which sends the first InitialCwnd segments).
func (h *harness) open() {
	h.s.Start()
	h.deliver(packet.FlagSYN|packet.FlagACK, 5000, h.s.iss+1)
}

// TestPayloadMatchesFormula pins the transmitted data bytes to the
// per-byte formula 'a'+(seq+i)%25 (sequence arithmetic mod 2^32) for every
// seq residue, at 1 byte, one MSS and the largest segment, and for
// segments that end at, straddle or start just past the 2^32 wrap.
func TestPayloadMatchesFormula(t *testing.T) {
	h := newHarness(t, Config{}, true)
	check := func(seq, n uint32) {
		t.Helper()
		h.sent = h.sent[:0]
		h.arena.Reset()
		h.s.sendData(seq, n)
		var p packet.Packet
		if err := packet.DecodeInto(&p, h.sent[0].Materialize()); err != nil {
			t.Fatal(err)
		}
		if len(p.Payload) != int(n) {
			t.Fatalf("seq %d n %d: sent %d bytes", seq, n, len(p.Payload))
		}
		for i, b := range p.Payload {
			if want := 'a' + byte((seq+uint32(i))%25); b != want {
				t.Fatalf("seq %d n %d: byte %d = %q, want %q", seq, n, i, b, want)
			}
		}
		if bytes.IndexByte(p.Payload, '\n') >= 0 {
			t.Fatalf("seq %d n %d: payload holds a newline", seq, n)
		}
	}
	for _, n := range []uint32{1, 1460, maxSegment} {
		for r := uint32(0); r < 25; r++ {
			for _, base := range []uint32{0, 1 << 31, ^uint32(0) - 2*maxSegment} {
				check(base+r, n)
			}
		}
		for _, back := range []uint32{1, 2, 21, n / 2, n - 1, n, n + 1} {
			if back > 0 {
				check(-back, n)
			}
		}
	}
}

// TestSendTimesTrackUnacked checks the first-transmission record: it holds
// exactly the unacknowledged segments in seq order, a cumulative ACK drops
// the acknowledged prefix, and the RTT sample comes from the segment at
// the old sndUna.
func TestSendTimesTrackUnacked(t *testing.T) {
	h := newHarness(t, Config{MSS: 1000, InitialCwnd: 4}, false)
	h.open()
	base := h.s.iss + 1
	wantSeqs := func(seqs ...uint32) {
		t.Helper()
		if len(h.s.sendTimes) != len(seqs) {
			t.Fatalf("sendTimes %v, want seqs %v", h.s.sendTimes, seqs)
		}
		for i, st := range h.s.sendTimes {
			if st.seq != seqs[i] {
				t.Fatalf("sendTimes %v, want seqs %v", h.s.sendTimes, seqs)
			}
		}
	}
	wantSeqs(base, base+1000, base+2000, base+3000)

	at := func(ms int) { h.loop.RunUntil(sim.Time(time.Duration(ms) * time.Millisecond)) }
	wantRTT := func(d time.Duration) {
		t.Helper()
		if h.s.minRTT != d {
			t.Fatalf("minRTT = %v, want %v", h.s.minRTT, d)
		}
	}

	// Two segments at once: sample the one at sndUna (sent at 0), and the
	// opened window sends three more at 3ms.
	at(3)
	h.deliver(packet.FlagACK, 5001, base+2000)
	wantRTT(3 * time.Millisecond)
	wantSeqs(base+2000, base+3000, base+4000, base+5000, base+6000)

	// A mid-segment ACK drops the segment it lands in.
	at(4)
	h.deliver(packet.FlagACK, 5001, base+2500)
	wantSeqs(base+3000, base+4000, base+5000, base+6000, base+7000)

	// sndUna (base+2500) starts no recorded segment: no sample.
	at(5)
	h.deliver(packet.FlagACK, 5001, base+4000)
	wantRTT(3 * time.Millisecond)
	wantSeqs(base+4000, base+5000, base+6000, base+7000, base+8000, base+9000)

	// base+4000 went out at 3ms: a 2ms sample.
	h.deliver(packet.FlagACK, 5001, base+5000)
	wantRTT(2 * time.Millisecond)
}

// BenchmarkSenderSegment is the sender's unit cost per data segment: one
// cumulative ACK for one MSS is processed (send-times bookkeeping, window
// growth, RTO retarget) and releases exactly one new full segment, built
// into an arena frame. Window-limited steady state at a 65535-byte peer
// window, nothing downstream.
func BenchmarkSenderSegment(b *testing.B) {
	cfg := Config{Bytes: 1 << 30} // sequence space allows < 2^31 in flight
	h := newHarness(b, cfg, false)
	var ack uint32
	// start (re)opens the connection and ACKs past slow start, so every
	// later ACK releases one segment.
	start := func() {
		h.loop.Reset()
		h.arena.Reset()
		h.s.Reset(cfg, clientAddr, serverAddr, sim.NewRand(1, 2), h.s.out)
		h.open()
		ack = h.s.iss + 1
		for i := 0; i < 200; i++ {
			ack += uint32(h.s.cfg.MSS)
			h.deliver(packet.FlagACK, 5001, ack)
		}
	}
	start()
	b.ReportAllocs()
	b.ResetTimer()
	h.nsent = 0
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			h.arena.Reset() // nothing downstream holds the frames
		}
		if h.s.end-h.s.sndNxt < 1<<20 {
			b.StopTimer()
			n := h.nsent
			start()
			h.nsent = n
			b.StartTimer()
		}
		ack += uint32(h.s.cfg.MSS)
		h.deliver(packet.FlagACK, 5001, ack)
	}
	b.StopTimer()
	if h.nsent != b.N {
		b.Fatalf("%d ACKs released %d segments, want one each", b.N, h.nsent)
	}
}
