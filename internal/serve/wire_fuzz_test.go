package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"lotus/internal/tensor"
)

// encodeMessage renders any wire message, for the round-trip tests.
func encodeMessage(msg any) ([]byte, error) {
	switch m := msg.(type) {
	case Hello:
		return EncodeHello(m), nil
	case HelloAck:
		return EncodeHelloAck(m), nil
	case ShardReq:
		return EncodeShardReq(m), nil
	case *Batch:
		return AppendBatch(nil, m), nil
	case ErrorMsg:
		return EncodeError(m), nil
	case Bye:
		return EncodeBye(), nil
	}
	return nil, fmt.Errorf("serve: cannot encode %T", msg)
}

// FuzzFrameRoundTrip drives arbitrary bytes through the decoder. The decoder
// must never panic, and it accepts only canonical encodings: whatever it
// decodes re-encodes to exactly the bytes it was given, alignment padding
// included. That is what lets the server and client compare streams
// byte-for-byte and the disk tier serve stored frames verbatim.
func FuzzFrameRoundTrip(f *testing.F) {
	seeds := []any{
		Hello{Version: 1, Rank: 1, World: 4, Name: "fuzz"},
		HelloAck{Version: 1, DatasetLen: 100, BatchSize: 8, PlanBatches: 13, Mode: 1, Workload: "OD"},
		HelloAck{Version: ProtocolVersion, DatasetLen: 64, BatchSize: 32, PlanBatches: 2, Mode: 1, Workload: "IC", Table: fuzzTable()},
		// A pixel batch, as a session with a table receives it.
		&Batch{Epoch: 1, GlobalID: 0, Indices: []int{3, 1}, Labels: []int{0, 4},
			Dtype: tensor.Uint8, Shape: []int{2, 1, 2, 3}, U8: make([]uint8, 12)},
		ShardReq{Epoch: 9, IDs: []int{2, 0}},
		ShardReq{Epoch: MaxEpoch + 1, IDs: []int{0}}, // out of range: refused
		&Batch{Epoch: 1, GlobalID: 2, Indices: []int{3, 1}, Labels: []int{0, 4},
			Dtype: tensor.Uint8, Shape: []int{2, 2}, U8: []uint8{9, 8, 7, 6}},
		&Batch{Epoch: 0, GlobalID: 1, Indices: []int{5}, Labels: []int{-2},
			Dtype: tensor.Float32, Shape: []int{1, 2}, F32: []float32{1.5, -0.25}},
		// A header that ends one byte short of the alignment (13 samples,
		// rank 3: 131 + 4 = 135 bytes, 57 of padding) and one that needs none.
		&Batch{Epoch: 2, GlobalID: 3, Indices: make([]int, 13), Labels: make([]int, 13),
			Dtype: tensor.Uint8, Shape: []int{13, 1, 1}, U8: make([]uint8, 13)},
		&Batch{Epoch: 2, GlobalID: 4, Indices: make([]int, 5), Labels: make([]int, 5),
			Dtype: tensor.Float32, Shape: []int{5, 0}, F32: []float32{}},
		&Batch{Epoch: 4, GlobalID: 0, Indices: []int{1}, Labels: []int{1}, Dtype: tensor.Float32, Shape: []int{1, 3, 8, 8}},
		ErrorMsg{Message: "boom"},
		Bye{},
	}
	for _, msg := range seeds {
		enc, err := encodeMessage(msg)
		if err != nil {
			f.Fatalf("seed encode %T: %v", msg, err)
		}
		f.Add(enc)
		if b, ok := msg.(*Batch); ok && (b.U8 != nil || b.F32 != nil) {
			// The same frame with a dirty padding byte: must be rejected, or
			// two byte strings would decode to one batch.
			if pad := batchHeaderSize(len(b.Indices), len(b.Shape)) + 4; pad < batchTensorOffset(len(b.Indices), len(b.Shape)) {
				dirty := append([]byte(nil), enc...)
				dirty[pad] = 1
				f.Add(dirty)
			}
		}
	}
	f.Add([]byte{0xff})
	f.Add([]byte{byte(MsgBatch), 0, 0, 0, 1})
	// A protocol v4 EpochEnd frame (type 0x05, epoch 1, 7 batches, a
	// checksum): the type is retired, so the decoder must refuse it.
	f.Add([]byte{0x05, 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0x30, 0x39})
	for _, bad := range badTableAcks() {
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(data) // must not panic
		if err != nil {
			return
		}
		enc, err := encodeMessage(msg)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("decoder accepted a non-canonical %T:\n   input: %x\nre-encoded: %x", msg, data, enc)
		}
	})
}

// fuzzTable is a tensor tail table as a server sends it: IC's.
func fuzzTable() *[3][256]float32 {
	t := new([3][256]float32)
	for c := range t {
		for v := range t[c] {
			t[c][v] = (float32(v)/255 - 0.45) / (0.22 + float32(c)/100)
		}
	}
	return t
}

// badTableAcks are HelloAck payloads whose table the decoder must refuse: in
// simulated mode, one value short, one NaN, and a count that is not 768.
func badTableAcks() [][]byte {
	ack := HelloAck{Version: ProtocolVersion, Mode: 1, Workload: "IC", Table: fuzzTable()}
	good := EncodeHelloAck(ack)
	ack.Mode = 0
	sim := EncodeHelloAck(ack)
	short := good[:len(good)-4]
	nan := bytes.Clone(good)
	binary.BigEndian.PutUint32(nan[len(nan)-4:], math.Float32bits(float32(math.NaN())))
	count := bytes.Clone(good)
	binary.BigEndian.PutUint16(count[len(count)-4*tableLen-2:], tableLen-1)
	return [][]byte{sim, short, nan, count}
}

// FuzzControlMessages is the fuzzer for the four control decoders a remote
// peer reaches before (Hello, HelloAck), instead of (ShardReq) and after
// (Error) the batch stream, which FuzzFrameRoundTrip's corpus barely touches: bytes are
// forced onto each message type in turn, the decoder must not panic, and
// what it accepts satisfies the invariants the server relies on without
// re-checking and re-encodes to the input.
func FuzzControlMessages(f *testing.F) {
	for _, msg := range []any{
		Hello{Version: ProtocolVersion, Rank: 3, World: MaxWorld, Name: "trainer", Tenant: "team-vision"},
		Hello{Version: 2, World: 1},
		ShardReq{Epoch: 4, IDs: []int{7, 0, 3}},
		ShardReq{Epoch: 0, IDs: []int{}, Hedge: true},             // names no batch: refused
		Hello{Version: ProtocolVersion, World: 1, Name: "bell\a"}, // unprintable: refused
		ShardReq{Epoch: MaxEpoch + 1, IDs: []int{2}},              // out of range: refused
		ErrorMsg{Message: "server busy: session limit reached", Code: CodeBusy},
		ErrorMsg{},
	} {
		enc, err := encodeMessage(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc[1:])
	}
	for _, ack := range append(badTableAcks(), EncodeHelloAck(HelloAck{Version: ProtocolVersion, Mode: 1, Workload: "ICA", Table: fuzzTable()})) {
		f.Add(ack[1:])
	}
	f.Add([]byte{0, 3, 0, 0, 0, 9, 0, 0, 0, 2, 0, 0, 0, 0}) // rank 9 of world 2
	f.Add([]byte{0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0})    // forged id count
	f.Add([]byte{0xff, 0xff, 'x', 0})                       // string length past the end

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, typ := range []MsgType{MsgHello, MsgHelloAck, MsgShardReq, MsgError} {
			data := append([]byte{byte(typ)}, body...)
			msg, err := DecodeMessage(data) // must not panic
			if err != nil {
				if !errors.Is(err, ErrMalformed) {
					t.Fatalf("type %#x: rejection %v does not wrap ErrMalformed", typ, err)
				}
				continue
			}
			switch m := msg.(type) {
			case Hello:
				if m.World < 1 || m.World > MaxWorld || m.Rank < 0 || m.Rank >= m.World {
					t.Fatalf("accepted Hello with rank %d of world %d", m.Rank, m.World)
				}
				for _, s := range []string{m.Name, m.Tenant} {
					if len(s) > MaxHelloString || strings.ContainsFunc(s, func(r rune) bool { return r < ' ' || r > '~' }) {
						t.Fatalf("accepted Hello string %q", s)
					}
				}
			case ShardReq:
				if m.Epoch < 0 || m.Epoch > MaxEpoch {
					t.Fatalf("accepted ShardReq for epoch %d", m.Epoch)
				}
				if len(m.IDs) == 0 {
					t.Fatal("accepted a ShardReq naming no batch")
				}
				if len(m.IDs) > len(body)/4 {
					t.Fatalf("accepted ShardReq with %d ids from a %d-byte body", len(m.IDs), len(body))
				}
			case HelloAck:
				if m.Table != nil {
					if m.Mode != 1 {
						t.Fatalf("accepted a tensor tail table in mode %d", m.Mode)
					}
					for c := range m.Table {
						for _, v := range m.Table[c] {
							if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
								t.Fatalf("accepted a tensor tail table holding %v", v)
							}
						}
					}
				}
			case ErrorMsg:
			default:
				t.Fatalf("type %#x body decoded to %T", typ, msg)
			}
			enc, err := encodeMessage(msg)
			if err != nil {
				t.Fatalf("decoded %T does not re-encode: %v", msg, err)
			}
			if !bytes.Equal(enc, data) {
				t.Fatalf("decoder accepted a non-canonical %T:\n   input: %x\nre-encoded: %x", msg, data, enc)
			}
		}
	})
}
