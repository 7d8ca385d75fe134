package tcpstack

import (
	"testing"

	"reorder/internal/packet"
)

// maxSegment is the largest payload NewTCPFrame accepts on an option-free
// TCP header: a 65535-byte datagram less 40 header bytes.
const maxSegment = 0xffff - 40

// TestServedPayloadMatchesFormula pins the served object bytes to the
// per-byte formula (seq+i)%251 (sequence arithmetic mod 2^32) for every
// seq residue, at 1 byte, one MSS and the largest segment, and for
// segments that end at, straddle or start just past the 2^32 wrap.
func TestServedPayloadMatchesFormula(t *testing.T) {
	h := newHarness(t, Config{})
	c := &conn{peer: probeAddr, pport: 4000, lport: 80}
	check := func(seq, n uint32) {
		t.Helper()
		h.stack.sendData(c, seq, n)
		out := h.drain()
		if len(out) != 1 || len(out[0].Payload) != int(n) {
			t.Fatalf("seq %d n %d: sent %v", seq, n, summaries(out))
		}
		for i, b := range out[0].Payload {
			if want := byte((seq + uint32(i)) % 251); b != want {
				t.Fatalf("seq %d n %d: byte %d = %d, want %d", seq, n, i, b, want)
			}
		}
	}
	for _, n := range []uint32{1, 1460, maxSegment} {
		for r := uint32(0); r < 251; r++ {
			for _, base := range []uint32{0, 1 << 31, ^uint32(0) - 2*maxSegment} {
				check(base+r, n)
			}
		}
		for _, back := range []uint32{1, 2, 123, n / 2, n - 1, n, n + 1} {
			if back > 0 {
				check(-back, n)
			}
		}
	}
}

// TestRequestNewlineInLaterSegment splits the request line across two
// in-order segments: the first carries no '\n', so the application stays
// silent, and the second completes the line and starts the transfer.
func TestRequestNewlineInLaterSegment(t *testing.T) {
	h := newHarness(t, Config{ObjectSize: 64, DelAckThreshold: 100})
	serverISS := h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Ack: serverISS + 1,
		Flags: packet.FlagACK | packet.FlagPSH, Window: 65535}, []byte("GET /index"))
	if data := dataSegments(h.drain()); len(data) != 0 {
		t.Fatalf("served before the request line was complete: %v", summaries(data))
	}
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 111, Ack: serverISS + 1,
		Flags: packet.FlagACK | packet.FlagPSH, Window: 65535}, []byte(".html\r\n"))
	n := 0
	for _, p := range dataSegments(h.drain()) {
		n += len(p.Payload)
	}
	if n != 64 {
		t.Fatalf("served %d bytes after the newline arrived, want 64", n)
	}
}
