package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"lotus/internal/tensor"
)

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	enc, err := EncodeMessage(msg)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, enc); err != nil {
		t.Fatalf("write frame: %v", err)
	}
	payload, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	if !bytes.Equal(payload, enc) {
		t.Fatal("frame payload corrupted in transit")
	}
	out, err := DecodeMessage(payload)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	return out
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := []any{
		Hello{Version: 1, Rank: 2, World: 5, Name: "trainer-a"},
		Hello{Version: 1, Rank: 0, World: 1, Name: ""},
		Hello{Version: 1, Rank: 1, World: 4, Name: "trainer-b", Tenant: "team-vision"},
		HelloAck{Version: 1, DatasetLen: 5120, BatchSize: 128, PlanBatches: 40, ShardBatches: 20, Mode: 1, Workload: "IC"},
		EpochReq{Epoch: 3},
		EpochReq{Epoch: MaxEpoch},
		ShardReq{Epoch: 4, IDs: []int{7, 0, 3}},
		ShardReq{Epoch: MaxEpoch, IDs: []int{1}},
		ShardReq{Epoch: 0, IDs: []int{}},
		ShardReq{Epoch: 2, IDs: []int{5, 1}, Hedge: true},
		&Batch{Epoch: 1, GlobalID: 7, Indices: []int{4, 9, 1}, Labels: []int{0, -1, 2},
			Dtype: tensor.Float32, Shape: []int{3, 3, 224, 224}},
		&Batch{Epoch: 0, GlobalID: 0, Indices: []int{1}, Labels: []int{5},
			Dtype: tensor.Uint8, Shape: []int{1, 4}, U8: []uint8{1, 2, 3, 4}},
		&Batch{Epoch: 2, GlobalID: 3, Indices: []int{2, 6}, Labels: []int{1, 1},
			Dtype: tensor.Float32, Shape: []int{2, 2}, F32: []float32{0.5, -1.25, 3e8, 0}},
		EpochEnd{Epoch: 2, Batches: 20, Checksum: 0xdeadbeefcafef00d},
		ErrorMsg{Message: "server draining"},
		ErrorMsg{Message: "server busy: session limit reached", Code: CodeBusy},
		Bye{},
	}
	for _, msg := range msgs {
		out := roundTrip(t, msg)
		if !reflect.DeepEqual(out, msg) {
			t.Errorf("round trip changed %T:\n in: %#v\nout: %#v", msg, msg, out)
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"unknown type", []byte{0xff, 1, 2, 3}},
		{"truncated hello", EncodeHello(Hello{Version: 1, World: 1})[:4]},
		{"hello rank out of world", func() []byte {
			b := EncodeHello(Hello{Version: 1, Rank: 0, World: 2})
			b[6] = 9 // low byte of rank -> rank 9 >= world 2
			return b
		}()},
		{"hello world zero", func() []byte {
			b := EncodeHello(Hello{Version: 1, Rank: 0, World: 1})
			b[7+3] = 0
			return b
		}()},
		{"trailing garbage", append(EncodeEpochReq(EpochReq{Epoch: 1}), 0)},
		{"epochreq epoch past MaxEpoch", EncodeEpochReq(EpochReq{Epoch: MaxEpoch + 1})},
		{"epochreq epoch -1 on the wire", []byte{byte(MsgEpochReq), 0xff, 0xff, 0xff, 0xff}},
		{"shardreq epoch past MaxEpoch", EncodeShardReq(ShardReq{Epoch: MaxEpoch + 1, IDs: []int{1}})},
		{"truncated shardreq ids", EncodeShardReq(ShardReq{Epoch: 1, IDs: []int{1, 2, 3}})[:11]},
		{"shardreq forged count", func() []byte {
			b := EncodeShardReq(ShardReq{Epoch: 1, IDs: []int{1}})
			b[5+3] = 0xff // inflate the id count far past the payload
			return b
		}()},
		{"shardreq missing hedge flag", EncodeShardReq(ShardReq{Epoch: 1, IDs: []int{1}})[:13]},
		{"shardreq bogus hedge flag", func() []byte {
			b := EncodeShardReq(ShardReq{Epoch: 1, IDs: []int{1}})
			b[len(b)-1] = 7
			return b
		}()},
		{"batch forged count", func() []byte {
			b := EncodeBatch(&Batch{Indices: []int{1}, Labels: []int{1}, Dtype: tensor.Uint8})
			b[9+3] = 0xff // inflate the sample count far past the payload
			return b
		}()},
		{"batch bad dtype", func() []byte {
			b := EncodeBatch(&Batch{Indices: []int{1}, Labels: []int{1}, Dtype: tensor.Uint8})
			b[len(b)-3] = 0x7f
			return b
		}()},
		{"batch payload size mismatch", func() []byte {
			b := EncodeBatch(&Batch{Indices: []int{1}, Labels: []int{1},
				Dtype: tensor.Uint8, Shape: []int{4}, U8: []uint8{1, 2, 3, 4}})
			return b[:len(b)-1]
		}()},
	}
	for _, tc := range cases {
		msg, err := DecodeMessage(tc.payload)
		if err == nil {
			t.Errorf("%s: decoded to %#v, want error", tc.name, msg)
			continue
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", tc.name, err)
		}
	}
	// A HelloAck's table is 768 finite float32s, and only in RealData.
	for i, payload := range badTableAcks() {
		if msg, err := DecodeMessage(payload); !errors.Is(err, ErrMalformed) {
			t.Errorf("bad table %d: decoded to %#v (%v), want ErrMalformed", i, msg, err)
		}
	}
}

func TestReadFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // 4 GiB frame
	if _, err := ReadFrame(&buf, 1<<20); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized frame: got %v, want ErrMalformed", err)
	}

	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0}) // empty payload
	if _, err := ReadFrame(&buf, 0); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty frame: got %v, want ErrMalformed", err)
	}

	buf.Reset()
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("clean close: got %v, want io.EOF", err)
	}

	buf.Reset()
	buf.Write([]byte{0, 0, 0, 8, 1, 2}) // a header cut short
	if _, err := ReadFrame(&buf, 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated header: got %v, want ErrUnexpectedEOF", err)
	}

	buf.Reset()
	buf.Write([]byte{0, 0, 0, 8, 0, 0, 0, 0, 1, 2}) // header promises 8, delivers 2
	if _, err := ReadFrame(&buf, 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: got %v, want ErrUnexpectedEOF", err)
	}

	buf.Reset()
	WriteFrame(&buf, EncodeEpochReq(EpochReq{Epoch: 3}))
	buf.Bytes()[FrameHeaderSize+2] ^= 0x10 // one bit of the payload flips in transit
	if _, err := ReadFrame(&buf, 0); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupt payload: got %v, want ErrCorruptFrame", err)
	}
}

// TestFrameHeaderGolden pins the version 4 frame header of one batch frame:
// the payload length and its CRC32C, both big-endian. Every frame crosses
// the wire behind these eight bytes, so a change to either word's order or
// to the digest definition is a protocol change; CI also runs this with the
// CRC32C hardware path off.
func TestFrameHeaderGolden(t *testing.T) {
	m := &Batch{Epoch: 1, GlobalID: 2, Indices: []int{3, 1}, Labels: []int{0, 4},
		Dtype: tensor.Uint8, Shape: []int{2, 1, 2, 3}, U8: []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, EncodeBatch(m)); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", buf.Bytes()[:FrameHeaderSize]), "0000004cc0e2bae2"; got != want {
		t.Fatalf("batch frame header %s, pinned %s", got, want)
	}
	if got := buf.Bytes()[FrameHeaderSize:]; !bytes.Equal(got, EncodeBatch(m)) {
		t.Fatalf("payload after the header is not the batch's encoding")
	}
}

func TestBatchTensorReconstruction(t *testing.T) {
	b := &Batch{Dtype: tensor.Uint8, Shape: []int{2, 3}, U8: []uint8{1, 2, 3, 4, 5, 6}}
	tt := b.Tensor()
	if tt.Dtype != tensor.Uint8 || !reflect.DeepEqual(tt.Shape, []int{2, 3}) {
		t.Fatalf("tensor meta: %v %v", tt.Dtype, tt.Shape)
	}
	if len(tt.U8) != 6 {
		t.Fatalf("tensor payload lost: %d bytes", len(tt.U8))
	}
}
