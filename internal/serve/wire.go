// Package serve implements the disaggregated preprocessing service: a
// long-running TCP server whose one compute plane — a pool of
// internal/pipeline batch workers shared by every session — serves collated
// tensor batches over a length-prefixed binary wire protocol to multiple
// concurrent client sessions with per-session epoch sharding,
// bounded server-side prefetch (backpressure), graceful drain, and live
// observability over an HTTP sidecar (/healthz, /metrics, /trace).
//
// It is the tf.data-service shape that the disaggregated-preprocessing
// literature studies: many trainers share one pool of preprocessing workers,
// its caches and its LotusTrace instrumentation.
//
// # Wire format (protocol version 5)
//
// Every frame is an 8-byte header — the payload length and the payload's
// Digest (CRC32C), both u32 big-endian — followed by the payload; the
// payload's first byte is the message type. Integers are big-endian;
// strings are a u16 length plus UTF-8 bytes. A frame longer than the
// receiver's bound, an unknown type, or a payload that does not parse
// exactly is malformed: the server answers with an Error frame and closes
// the session (it never panics on remote input). A payload whose bytes do
// not match the digest in its header is corrupt (ErrCorruptFrame): nothing
// decodes it, and a client retries it like a dropped connection. A server
// bounds what it reads by the largest request a client may send (a Hello
// with both strings full, or a ShardReq naming the whole plan), a client by
// DefaultMaxFrame.
//
//	client -> server: Hello{version, rank, world, name, tenant}
//	server -> client: HelloAck{version, datasetLen, batchSize, planBatches, mode, workload, table}
//	client -> server: ShardReq{epoch, ids, hedge}   (one or more plan batch IDs)
//	server -> client: Batch{epoch, globalID, ...}   (exactly len(ids) of them, in request order)
//	client -> server: Bye{} (or just closes)
//	server -> client: Error{message} before closing on any failure
//
// There is one way to ask for batches: the client names them. A rank/world
// trainer computes its strided shard (Shard) from HelloAck.PlanBatches; a
// cluster router names whatever its ring assigns. Rank and World stay in
// Hello as the session's labels on /metrics.
//
// # Digests
//
// Every frame payload has one digest: its CRC32C (Digest). For a Batch the
// server computes it once, when the frame is encoded — or adopts the one the
// disk tier verified on read — and the Frame carries it for as long as the
// bytes live, so a cache hit hashes nothing; the header carries it to the
// client, which computes one CRC32C per payload it receives and compares the
// two before it decodes the frame or shows it to a callback. A consumer
// therefore never sees a corrupted batch: it sees the error instead.
//
// The stream's shape is checked against the request, not against the
// server's account of what it sent: the client knows the IDs it named, so
// the k-th frame must be batch ids[k] of the requested epoch, and the
// stream ends at the len(ids)-th. A swapped, dropped, duplicated,
// foreign-epoch or unrequested frame fails the stream at that position,
// before any callback sees it.
//
// What CRC32C detects: every 1-, 2- and 3-bit error and every burst up to 32
// bits (the polynomial keeps Hamming distance 4 out to 2^31 - 1 bits, 256
// MiB; DefaultMaxFrame is 64 MiB), and any other damage with probability
// 1 - 2^-32.
//
// A peer of any version but ProtocolVersion is refused at Hello. A peer older
// than version 4 frames without the digest word and is refused in its own
// framing; a version 4 peer frames like this one and is refused in it: either
// reads a clean Error.
//
// # Batch payload layout
//
// Offsets are from the start of the frame payload (the type byte is offset
// 0); n is the batch's sample count, r the tensor's rank.
//
//	offset            size   field
//	0                 1      type (MsgBatch)
//	1                 4      epoch
//	5                 4      global batch id
//	9                 4      n
//	13                4n     sample indices
//	13+4n             4n     labels (two's complement)
//	13+8n             1      dtype (0 uint8, 1 float32)
//	14+8n             1      r (<= 8)
//	15+8n             4r     shape
//	15+8n+4r          1      materialized flag (0: meta tensor, the frame ends here)
//	16+8n+4r          4      nbytes = product(shape) * dtype size
//	20+8n+4r          p      zero padding, p = the 0..63 bytes that reach the next multiple of 64
//	T = 20+8n+4r+p    nbytes tensor: uint8 as is; float32 as IEEE-754 bits, little-endian
//
// Alignment rule: T is a multiple of 64, so in a receive buffer aligned to 64
// (or to 4) bytes the tensor is too, and can be used where it landed. The
// padding is part of the canonical encoding — it must be zero, a nonzero
// padding byte is ErrMalformed, and it is covered by the frame's Digest like
// every other byte — so a batch still has exactly one encoding. Every field
// outside the tensor stays big-endian. The tensor is little-endian and
// aligned so that, on a little-endian host, it is the in-memory tensor and
// neither side runs a conversion pass. Big-endian hosts, and payloads that
// are not 4-byte aligned in memory, take the portable element loops in
// f32.go and see the same values.
//
// # The wire point
//
// A RealData plan that ends in ToTensor, Normalize has those two ops run by
// its collate, as one 3×256 table lookup per byte (pipeline's tensor
// tail→collate rewrite). On a server that pass is the last thing done to a
// batch, and it quadruples it: 4.8 MB of uint8 pixels become 19.3 MB of
// float32 for an IC batch. So the server stops one pass short. Its collate
// writes the samples' interleaved pixels into the frame as a uint8
// [N, H, W, 3] tensor, and HelloAck carries the table (Table: 768 float32s,
// channel-major, big-endian; present exactly when the served plan has this
// wire point, and only in RealData). The Client runs the last pass: per
// sample, imaging.(*Image).MapInto from the received pixels into a float32
// buffer the Client owns, and the callback gets a float32 [N, 3, H, W] Batch
// whose F32 is a view of that buffer — the tensor the local DataLoader makes,
// bit for bit. A session with a table that receives any other batch shape
// fails with ErrMalformed. Everything between the collate and the callback —
// batch cache, disk tier, cluster and hedge traffic, both digests and both
// socket copies — carries a quarter of the bytes, and no option chooses it:
// the plan does.
//
// Lifetime of views: DecodeMessage does not copy the tensor. A decoded
// Batch's U8 / F32 alias the payload they were decoded from. A Client reads
// every frame of a stream into one reused buffer and finishes every batch
// into a second one, so the *Batch and payload a Client callback receives —
// b.F32 and b.U8 included — are valid only until the callback returns.
// Batch.Clone is the copy for consumers that keep one.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"strings"

	"lotus/internal/tensor"
)

// Protocol constants.
const (
	// ProtocolVersion is bumped on every incompatible wire change. The
	// server refuses any other version at Hello, so two definitions never
	// meet mid-stream.
	ProtocolVersion = 5
	// frameLayoutVersion names the byte layout of an encoded Batch frame. It
	// is hashed into SpecFingerprint because encoded frames outlive the
	// process in the disk tier: bump it whenever AppendBatch's output changes
	// for the same batch, or what a batch's frame holds (pixels or float32s),
	// so that frames persisted under the old layout become misses instead of
	// being streamed to peers that parse the new one.
	frameLayoutVersion = 4
	// FrameHeaderSize is the length of a frame's header: payload length and
	// payload digest.
	FrameHeaderSize = 8
	// tensorAlign is the alignment, relative to the start of the frame
	// payload, of a Batch frame's tensor bytes: a cache line, so a receiver
	// that reads the payload into an aligned buffer can use the tensor in
	// place as []float32 (or hand it to SIMD / DMA) without moving it.
	tensorAlign = 64
	// DefaultMaxFrame bounds one frame's payload; larger frames are
	// malformed. Large enough for a real-mode collated batch.
	DefaultMaxFrame = 64 << 20
	// MaxWorld bounds the shard count a Hello may request.
	MaxWorld = 4096
	// MaxHelloString bounds Hello.Name and Hello.Tenant, which must be
	// printable ASCII: they become /metrics labels and log fields.
	MaxHelloString = 64
	// maxTensorRank bounds a batch tensor's rank on the wire.
	maxTensorRank = 8
)

// MsgType discriminates frame payloads.
type MsgType byte

const (
	MsgHello    MsgType = 0x01
	MsgHelloAck MsgType = 0x02
	MsgBatch    MsgType = 0x04
	MsgError    MsgType = 0x06
	MsgBye      MsgType = 0x07
	MsgShardReq MsgType = 0x08
)

// ErrMalformed tags every decode failure; errors.Is(err, ErrMalformed)
// distinguishes protocol violations from I/O errors.
var ErrMalformed = errors.New("serve: malformed frame")

// ErrCorruptFrame tags a frame whose payload does not match the digest in
// its header: the bytes were damaged in transit, so the frame is dropped
// undecoded. A Client retries it like a dropped connection.
var ErrCorruptFrame = errors.New("serve: frame digest mismatch")

// Hello is the client's session request.
type Hello struct {
	Version int
	// Rank / World label the session (its /metrics row and its reconnect
	// identity); the batches it streams are the ones its ShardReqs name.
	Rank, World int
	// Name labels the session in metrics. At most MaxHelloString bytes of
	// printable ASCII, like Tenant.
	Name string
	// Tenant identifies the paying principal the session belongs to, for
	// per-tenant QoS (rate limits and weighted-fair scheduling). Empty means
	// the default tenant.
	Tenant string
}

// HelloAck is the server's session acceptance.
type HelloAck struct {
	Version int
	// DatasetLen is the number of samples in the served dataset.
	DatasetLen int
	// BatchSize is the serving batch size.
	BatchSize int
	// PlanBatches is the full per-epoch plan length: the IDs a ShardReq may
	// name are 0..PlanBatches-1.
	PlanBatches int
	// Mode is 0 for simulated (meta tensors) and 1 for real payloads.
	Mode byte
	// Workload names the served pipeline (IC, IS, OD).
	Workload string
	// Table, when non-nil, is the served plan's tensor tail (ToTensor,
	// Normalize) as a table — Table[c][v] is what byte v of channel c
	// becomes — and says every Batch of the session arrives one pass short,
	// as uint8 [N, H, W, 3] pixels the client finishes with it (package doc,
	// "The wire point"). Only a RealData server sends one.
	Table *[3][256]float32
}

// tableLen is the number of float32s in an encoded HelloAck.Table.
const tableLen = 3 * 256

// ShardReq asks the server to stream a subset of one epoch's batch plan,
// identified by global batch IDs, in the order given: the only stream
// request. The batch plan — not the rank/world pair — defines the work, so a
// router can re-issue exactly the unserved IDs of a dead node to a survivor.
// IDs must be a non-empty list of in-range, duplicate-free plan positions.
type ShardReq struct {
	Epoch int
	IDs   []int
	// Hedge marks the request as a speculative re-issue by a straggler-
	// mitigating router: the stream is identical, but the server accounts the
	// traffic separately so hedge storms are visible on /metrics.
	Hedge bool
}

// Batch is the wire form of one collated batch. U8/F32 mirror
// tensor.Tensor: both nil for a meta (shape-only) tensor.
//
// A decoded Batch does not own its tensor: U8 and F32 are views over the
// frame payload it was decoded from wherever the host allows (see "Batch
// payload layout" in the package doc), so they are valid only as long as
// that payload is — for a Client callback, until the callback returns. Clone
// makes a Batch that owns its memory.
type Batch struct {
	Epoch    int
	GlobalID int
	Indices  []int
	Labels   []int
	Dtype    tensor.DType
	Shape    []int
	U8       []uint8
	F32      []float32
}

// Tensor reconstructs the batch's collated tensor.
func (b *Batch) Tensor() *tensor.Tensor {
	t := tensor.Meta(b.Dtype, b.Shape...)
	t.U8 = b.U8
	t.F32 = b.F32
	return t
}

// Clone returns a deep copy that shares no memory with b or with the frame
// payload b was decoded from: what a consumer keeps when it needs a batch
// past the callback that delivered it.
func (b *Batch) Clone() *Batch {
	c := *b
	c.Indices = append([]int(nil), b.Indices...)
	c.Labels = append([]int(nil), b.Labels...)
	c.Shape = append([]int(nil), b.Shape...)
	if b.U8 != nil {
		c.U8 = append([]uint8{}, b.U8...)
	}
	if b.F32 != nil {
		c.F32 = append([]float32{}, b.F32...)
	}
	return &c
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Digest is the per-frame payload digest: CRC32C, which hash/crc32 computes
// with SSE4.2 / ARMv8 CRC instructions where the CPU has them and slicing-8
// tables elsewhere — the same value either way.
func Digest(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// Error codes carried by ErrorMsg.Code. CodeFatal is the zero value every
// pre-existing error site uses; CodeBusy marks an admission-control rejection
// the client should retry with backoff rather than treat as fatal.
const (
	CodeFatal byte = 0
	CodeBusy  byte = 1
)

// ErrorMsg carries a server-side error; the server closes the session after
// sending it. Code distinguishes retryable overload (CodeBusy) from fatal
// protocol or pipeline failures (CodeFatal); it is an additive trailing byte
// in the same message (the ShardReq hedge-byte precedent).
type ErrorMsg struct {
	Message string
	Code    byte
}

// Bye is the client's clean goodbye.
type Bye struct{}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

// WriteFrame writes one frame: the header, with the payload's Digest, and
// the payload. payload must already start with the message type byte.
func WriteFrame(w io.Writer, payload []byte) error {
	return writeFrame(w, payload, Digest(payload))
}

// writeFrame is WriteFrame for a payload whose digest the caller already
// holds. Header and payload go out as one vectored write (writev on a TCP
// conn): a single syscall per frame and no risk of a header-only packet when
// Nagle is off. The payload is not copied, which is what lets cached
// sessions stream one shared immutable frame buffer to many connections.
func writeFrame(w io.Writer, payload []byte, digest uint32) error {
	var hdr [FrameHeaderSize]byte
	putFrameHeader(hdr[:], len(payload), digest)
	bufs := net.Buffers{hdr[:], payload}
	_, err := bufs.WriteTo(w)
	return err
}

// putFrameHeader writes a frame header into hdr.
func putFrameHeader(hdr []byte, n int, digest uint32) {
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	binary.BigEndian.PutUint32(hdr[4:8], digest)
}

// ReadFrame reads one frame's payload into a fresh buffer, enforcing maxFrame
// (0 means DefaultMaxFrame) and the header's digest. It returns io.EOF on a
// clean connection close at a frame boundary, ErrMalformed-wrapped errors on
// protocol violations and ErrCorruptFrame-wrapped ones on damaged bytes.
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	n, digest, err := readFrameHeader(r, maxFrame)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if err := readFramePayload(r, payload); err != nil {
		return nil, err
	}
	if err := checkDigest(payload, digest); err != nil {
		return nil, err
	}
	return payload, nil
}

// readFrameHeader reads a frame's header and checks the length against
// maxFrame. The halves of ReadFrame are separate so a reader that owns a
// reusable buffer (Client) can size it between them.
func readFrameHeader(r io.Reader, maxFrame int) (n int, digest uint32, err error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	n, err = checkFrameLen(binary.BigEndian.Uint32(hdr[:4]), maxFrame)
	return n, binary.BigEndian.Uint32(hdr[4:]), err
}

// checkFrameLen refuses an empty payload and one longer than maxFrame (0
// means DefaultMaxFrame).
func checkFrameLen(n uint32, maxFrame int) (int, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if n == 0 {
		return 0, fmt.Errorf("%w: empty payload", ErrMalformed)
	}
	if int64(n) > int64(maxFrame) {
		return 0, fmt.Errorf("%w: frame length %d exceeds limit %d", ErrMalformed, n, maxFrame)
	}
	return int(n), nil
}

// checkDigest compares a received payload with the digest its header
// carried.
func checkDigest(payload []byte, digest uint32) error {
	if got := Digest(payload); got != digest {
		return fmt.Errorf("%w: payload of %d bytes has CRC32C %#08x, header says %#08x", ErrCorruptFrame, len(payload), got, digest)
	}
	return nil
}

// readFramePayload fills payload with the frame body that follows a header.
func readFramePayload(r io.Reader, payload []byte) error {
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

func appendStr(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// EncodeHello renders a Hello frame payload.
func EncodeHello(h Hello) []byte {
	b := []byte{byte(MsgHello)}
	b = appendU16(b, uint16(h.Version))
	b = appendU32(b, uint32(h.Rank))
	b = appendU32(b, uint32(h.World))
	b = appendStr(b, h.Name)
	return appendStr(b, h.Tenant)
}

// EncodeHelloAck renders a HelloAck frame payload.
func EncodeHelloAck(a HelloAck) []byte {
	b := []byte{byte(MsgHelloAck)}
	b = appendU16(b, uint16(a.Version))
	b = appendU32(b, uint32(a.DatasetLen))
	b = appendU32(b, uint32(a.BatchSize))
	b = appendU32(b, uint32(a.PlanBatches))
	b = append(b, a.Mode)
	b = appendStr(b, a.Workload)
	if a.Table == nil {
		return appendU16(b, 0)
	}
	b = appendU16(b, tableLen)
	for c := range a.Table {
		for _, v := range a.Table[c] {
			b = appendU32(b, math.Float32bits(v))
		}
	}
	return b
}

// EncodeShardReq renders a ShardReq frame payload.
func EncodeShardReq(r ShardReq) []byte {
	b := make([]byte, 0, 1+4+4+4*len(r.IDs)+1)
	b = append(b, byte(MsgShardReq))
	b = appendU32(b, uint32(r.Epoch))
	b = appendU32(b, uint32(len(r.IDs)))
	for _, id := range r.IDs {
		b = appendU32(b, uint32(id))
	}
	hedge := byte(0)
	if r.Hedge {
		hedge = 1
	}
	return append(b, hedge)
}

// batchHeaderSize is the encoded length of a Batch frame payload up to and
// including the materialized flag, for a batch of n samples and a tensor of
// the given rank.
func batchHeaderSize(n, rank int) int { return 1 + 4 + 4 + 4 + 8*n + 1 + 1 + 4*rank + 1 }

// batchTensorOffset is where a materialized batch's tensor bytes start in the
// frame payload: past the header and the nbytes field, rounded up to
// tensorAlign.
func batchTensorOffset(n, rank int) int {
	return (batchHeaderSize(n, rank) + 4 + tensorAlign - 1) &^ (tensorAlign - 1)
}

// batchWireSize returns the exact encoded length of a Batch frame payload,
// so encode buffers can be sized without growth reallocations.
func batchWireSize(m *Batch) int {
	if m.U8 == nil && m.F32 == nil {
		return batchHeaderSize(len(m.Indices), len(m.Shape))
	}
	return batchTensorOffset(len(m.Indices), len(m.Shape)) + len(m.U8) + 4*len(m.F32)
}

// AppendBatch appends the canonical Batch frame encoding to dst and returns
// the extended slice. The encoding is deterministic, so two batches with
// identical content encode to identical bytes — the property the
// byte-identical serving test asserts. It is the reference encoder: the
// pooled frame path calls it, and the plane's collate-into-frame path is
// tested byte-equal to it.
func AppendBatch(dst []byte, m *Batch) []byte {
	b := appendBatchHeader(dst, m)
	switch {
	case m.U8 != nil:
		b = append(b, m.U8...)
	case m.F32 != nil:
		b = appendF32(b, m.F32)
	}
	return b
}

// appendBatchHeader appends everything of m's frame that precedes the tensor
// bytes: the fields, the materialized flag and, for a materialized tensor,
// its byte count and the zero padding that aligns what follows.
func appendBatchHeader(dst []byte, m *Batch) []byte {
	b := dst
	b = append(b, byte(MsgBatch))
	b = appendU32(b, uint32(m.Epoch))
	b = appendU32(b, uint32(m.GlobalID))
	b = appendU32(b, uint32(len(m.Indices)))
	for _, idx := range m.Indices {
		b = appendU32(b, uint32(idx))
	}
	for _, l := range m.Labels {
		b = appendU32(b, uint32(int32(l)))
	}
	b = append(b, byte(m.Dtype))
	b = append(b, byte(len(m.Shape)))
	for _, d := range m.Shape {
		b = appendU32(b, uint32(d))
	}
	if m.U8 == nil && m.F32 == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendU32(b, uint32(len(m.U8)+4*len(m.F32)))
	pad := -(len(b) - len(dst)) & (tensorAlign - 1)
	return append(b, make([]byte, pad)...) // the compiler extends in place: no allocation
}

// EncodeError renders an Error frame payload.
func EncodeError(e ErrorMsg) []byte {
	b := []byte{byte(MsgError)}
	b = appendStr(b, e.Message)
	return append(b, e.Code)
}

// EncodeBye renders a Bye frame payload.
func EncodeBye() []byte { return []byte{byte(MsgBye)} }

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

// dec is a bounds-checked cursor over a frame payload. Every read method
// reports malformed input through err instead of panicking; remote bytes
// must never be able to crash the server.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...)
	}
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("truncated u8 at offset %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 2 {
		d.fail("truncated u16 at offset %d", d.off)
		return 0
	}
	v := binary.BigEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 4 {
		d.fail("truncated u32 at offset %d", d.off)
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.remaining() < n {
		d.fail("truncated %d-byte field at offset %d", n, d.off)
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// MaxEpoch is the largest epoch a client may request; the decoder refuses
// a ShardReq naming a later one.
const MaxEpoch = 1 << 30

// epoch reads a requested epoch number and enforces 0 <= epoch <= MaxEpoch.
func (d *dec) epoch() int {
	e := int64(d.u32())
	if e > MaxEpoch {
		d.fail("epoch %d out of range [0,%d]", e, MaxEpoch)
		return 0
	}
	return int(e)
}

func (d *dec) str() string {
	n := int(d.u16())
	return string(d.bytes(n))
}

// helloStr reads a Hello string and enforces its door: at most
// MaxHelloString bytes, every one printable ASCII.
func (d *dec) helloStr() string {
	s := d.str()
	if len(s) > MaxHelloString || strings.ContainsFunc(s, func(r rune) bool { return r < ' ' || r > '~' }) {
		d.fail("hello string %.80q: want at most %d bytes of printable ASCII", s, MaxHelloString)
		return ""
	}
	return s
}

// count validates an element count against the bytes still available, so a
// forged count cannot trigger a huge allocation.
func (d *dec) count(elemBytes int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n > d.remaining()/elemBytes {
		d.fail("element count %d exceeds remaining payload", n)
		return 0
	}
	return n
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.b)-d.off)
	}
	return nil
}

// DecodeMessage parses a frame payload into its typed message. It never
// panics on malformed input; failures wrap ErrMalformed. A decoded *Batch
// aliases payload (see Batch): the caller must keep payload unchanged for as
// long as it uses the batch's tensor, or Clone it.
func DecodeMessage(payload []byte) (any, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrMalformed)
	}
	d := &dec{b: payload, off: 1}
	switch MsgType(payload[0]) {
	case MsgHello:
		h := Hello{}
		h.Version = int(d.u16())
		h.Rank = int(d.u32())
		h.World = int(d.u32())
		h.Name = d.helloStr()
		h.Tenant = d.helloStr()
		if err := d.done(); err != nil {
			return nil, err
		}
		if h.World < 1 || h.World > MaxWorld || h.Rank < 0 || h.Rank >= h.World {
			return nil, fmt.Errorf("%w: invalid shard rank %d of world %d", ErrMalformed, h.Rank, h.World)
		}
		return h, nil
	case MsgHelloAck:
		a := HelloAck{}
		a.Version = int(d.u16())
		a.DatasetLen = int(d.u32())
		a.BatchSize = int(d.u32())
		a.PlanBatches = int(d.u32())
		a.Mode = d.u8()
		a.Workload = d.str()
		a.Table = d.table(a.Mode)
		if err := d.done(); err != nil {
			return nil, err
		}
		return a, nil
	case MsgShardReq:
		r := ShardReq{Epoch: d.epoch()}
		n := d.count(4)
		if d.err == nil && n == 0 {
			d.fail("shardreq names no batch")
		}
		if d.err == nil {
			r.IDs = make([]int, n)
			for i := range r.IDs {
				r.IDs[i] = int(d.u32())
			}
		}
		switch h := d.u8(); h {
		case 0:
		case 1:
			r.Hedge = true
		default:
			d.fail("shardreq hedge flag %d", h)
		}
		if err := d.done(); err != nil {
			return nil, err
		}
		return r, nil
	case MsgBatch:
		return decodeBatch(d)
	case MsgError:
		e := ErrorMsg{Message: d.str()}
		e.Code = d.u8()
		if err := d.done(); err != nil {
			return nil, err
		}
		return e, nil
	case MsgBye:
		if err := d.done(); err != nil {
			return nil, err
		}
		return Bye{}, nil
	}
	return nil, fmt.Errorf("%w: unknown message type 0x%02x", ErrMalformed, payload[0])
}

// table reads HelloAck's tensor tail table: a u16 count that is 0 (no
// table) or tableLen, then that many finite float32s — present only when
// mode is 1 (RealData), the one mode with pixels to finish.
func (d *dec) table(mode byte) *[3][256]float32 {
	switch n := d.u16(); {
	case d.err != nil || n == 0:
		return nil
	case n != tableLen:
		d.fail("tensor tail table of %d values, want %d", n, tableLen)
		return nil
	case mode != 1:
		d.fail("tensor tail table in mode %d", mode)
		return nil
	}
	t := new([3][256]float32)
	for c := range t {
		for v := range t[c] {
			f := math.Float32frombits(d.u32())
			if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
				d.fail("tensor tail table value [%d][%d] is %v", c, v, f)
			}
			t[c][v] = f
		}
	}
	if d.err != nil {
		return nil
	}
	return t
}

func decodeBatch(d *dec) (*Batch, error) {
	m := &Batch{}
	m.Epoch = int(d.u32())
	m.GlobalID = int(d.u32())
	n := d.count(8) // each sample costs >= 8 bytes (index + label)
	if d.err == nil {
		m.Indices = make([]int, n)
		for i := range m.Indices {
			m.Indices[i] = int(d.u32())
		}
		m.Labels = make([]int, n)
		for i := range m.Labels {
			m.Labels[i] = int(int32(d.u32()))
		}
	}
	dtype := d.u8()
	if d.err == nil && dtype != byte(tensor.Uint8) && dtype != byte(tensor.Float32) {
		d.fail("unknown dtype %d", dtype)
	}
	m.Dtype = tensor.DType(dtype)
	rank := int(d.u8())
	if d.err == nil && rank > maxTensorRank {
		d.fail("tensor rank %d exceeds limit %d", rank, maxTensorRank)
	}
	if d.err == nil {
		m.Shape = make([]int, rank)
		elems := uint64(1)
		for i := range m.Shape {
			dim := d.u32()
			m.Shape[i] = int(dim)
			elems *= uint64(dim)
			if elems > uint64(DefaultMaxFrame) {
				d.fail("tensor shape %v overflows the frame limit", m.Shape[:i+1])
				break
			}
		}
	}
	if mat := d.u8(); d.err == nil && mat == 1 {
		nbytes := int(d.u32())
		if d.err == nil {
			want := tensor.NumElems(m.Shape) * m.Dtype.Size()
			if nbytes != want {
				d.fail("payload %d bytes does not match shape %v dtype %s (%d bytes)",
					nbytes, m.Shape, m.Dtype, want)
			}
		}
		for _, p := range d.bytes(-d.off & (tensorAlign - 1)) {
			if p != 0 {
				d.fail("nonzero padding before the tensor")
				break
			}
		}
		raw := d.bytes(nbytes)
		if d.err == nil {
			// Views, not copies (a zero-length one is still non-nil, so an
			// empty materialized payload round-trips).
			switch m.Dtype {
			case tensor.Uint8:
				m.U8 = raw
			case tensor.Float32:
				m.F32 = decodeF32(raw)
			}
		}
	} else if d.err == nil && mat != 0 {
		d.fail("bad materialized flag %d", mat)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return m, nil
}
