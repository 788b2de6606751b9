package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"sync"
	"time"

	"lotus/internal/imaging"
	"lotus/internal/rng"
	"lotus/internal/tensor"
)

// ClientConfig parameterizes a fetch client.
type ClientConfig struct {
	// Addr is the server's wire address (host:port). A Client talks to one
	// server; failing over across several is cluster.Client's job.
	Addr string
	// Rank/World select this client's shard of every epoch plan, the plan
	// batches rank, rank+world, ... (Shard). World <= 1 means the full plan.
	Rank, World int
	// Name labels the session in server metrics: at most 64 bytes of
	// printable ASCII, like Tenant, or the server refuses the Hello.
	Name string
	// Tenant identifies the QoS accounting bucket this session bills to.
	// Empty means the server's default tenant; servers without QoS ignore it.
	Tenant string
	// DialTimeout bounds each connection attempt, dial and handshake
	// together (default 5s). A server at its session cap holds the HelloAck
	// for up to its admission wait (serve.Config.AdmitWait, 2s by default),
	// so that wait must fit under this bound or a queued client gives up
	// before it is admitted.
	DialTimeout time.Duration
	// Retries is how many reconnect-and-retry attempts each epoch gets after
	// a transient failure (default 4). Fatal server errors are never retried.
	// Attempt k sleeps a jittered duration in [d/2, d), where d is 50ms
	// doubled k-1 times and capped at 2s; the jitter is seeded from Name and
	// Rank, so distinct clients diverge while any one client's schedule
	// stays reproducible.
	Retries int
	// OnRetry, when set, observes every retry decision.
	OnRetry func(epoch, attempt int, err error)
	// Sleep replaces time.Sleep for the backoff wait (tests inject a virtual
	// sleeper; nil = time.Sleep).
	Sleep func(time.Duration)
}

// The retry backoff: 50ms doubling per attempt, capped at 2s.
const (
	backoffBase = 50 * time.Millisecond
	backoffMax  = 2 * time.Second
)

// ServerError is an error the server reported in an Error frame. Code
// distinguishes deliberate refusals (CodeFatal — never retried: the server is
// alive and said no) from transient overload (CodeBusy — admission control
// turned the connection away; the client retries it through the same jittered
// backoff as a dropped socket).
type ServerError struct {
	Message string
	Code    byte
}

func (e *ServerError) Error() string { return "serve: server error: " + e.Message }

// Client streams preprocessed batches from a lotus-serve instance. Not safe
// for concurrent use; run one Client per goroutine. The one concession to
// concurrency is Kick, which may be called from any goroutine to sever the
// live connection and unblock the owner.
type Client struct {
	cfg ClientConfig
	// connMu guards the conn pointer itself (not the stream): the owner
	// goroutine reads and writes it freely between operations, while Kick
	// snapshots it from outside.
	connMu  sync.Mutex
	conn    net.Conn
	ack     HelloAck
	haveAck bool
	jitter  *rng.Stream
	// buf is the one buffer every frame of an epoch stream is read into: it
	// is what the Batch views handed to onBatch alias, and what makes a
	// received frame cost no allocation. It is Go heap the client owns — made
	// on first need, remade a size class up when a larger frame arrives —
	// never server frame memory: a Client dropped without Close leaks
	// nothing, and a consumer that reads a view too late reads a later
	// frame's bytes, not an unmapped page.
	buf []byte
	// fin is where a session whose HelloAck carries a tensor tail table
	// finishes each batch (finish): the float32 tensor onBatch's b.F32 views.
	// It lives exactly like buf — reused for every batch, remade larger when
	// a batch needs more — so the same callback lifetime covers both.
	fin []float32
}

// NewClient returns an unconnected client; the first Run or Connect dials.
func NewClient(cfg ClientConfig) *Client {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 4
	}
	if cfg.World < 1 {
		cfg.World = 1
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.Name))
	seed := int64(h.Sum64()) ^ int64(cfg.Rank+1)*2654435761
	return &Client{cfg: cfg, jitter: rng.New(seed, "serve/backoff")}
}

// Ack returns the server's handshake response once connected.
func (c *Client) Ack() (HelloAck, bool) { return c.ack, c.haveAck }

// Connect dials and handshakes if not already connected, both within
// DialTimeout: a listener that accepts and never answers is a dead node, not
// a hang.
func (c *Client) Connect() error {
	if c.conn != nil {
		return nil
	}
	deadline := time.Now().Add(c.cfg.DialTimeout)
	conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return err
	}
	conn.SetDeadline(deadline)
	hello := Hello{Version: ProtocolVersion, Rank: c.cfg.Rank, World: c.cfg.World,
		Name: c.cfg.Name, Tenant: c.cfg.Tenant}
	if err := WriteFrame(conn, EncodeHello(hello)); err != nil {
		conn.Close()
		return err
	}
	msg, err := c.readMessage(conn)
	if err != nil {
		conn.Close()
		return err
	}
	ack, ok := msg.(HelloAck)
	if !ok {
		conn.Close()
		return fmt.Errorf("serve: handshake: expected HelloAck, got %T", msg)
	}
	conn.SetDeadline(time.Time{})
	c.setConn(conn)
	c.ack = ack
	c.haveAck = true
	return nil
}

// setConn publishes the conn pointer under connMu so Kick sees a consistent
// snapshot from other goroutines.
func (c *Client) setConn(conn net.Conn) {
	c.connMu.Lock()
	c.conn = conn
	c.connMu.Unlock()
}

// Kick severs the live connection from any goroutine: the owner's blocking
// read fails with a closed-connection error and its next call redials. The
// cluster router uses it to release a round from a degraded node whose
// outstanding work a hedge already delivered. Kick never clears the pointer —
// teardown stays with the owning goroutine (drop/Close).
func (c *Client) Kick() {
	c.connMu.Lock()
	conn := c.conn
	c.connMu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// readStreamFrame reads the next frame of an epoch stream into the client's
// reused buffer and checks it against the digest in its header. The returned
// payload is overwritten by the next call.
func (c *Client) readStreamFrame() ([]byte, error) {
	n, digest, err := readFrameHeader(c.conn, DefaultMaxFrame)
	if err != nil {
		return nil, err
	}
	if cap(c.buf) < n {
		c.buf = make([]byte, frameBufClass(n))
	}
	payload := c.buf[:n]
	if err := readFramePayload(c.conn, payload); err != nil {
		return nil, err
	}
	return payload, checkDigest(payload, digest)
}

// finish runs the served plan's last pass on a batch that arrived one pass
// short (package doc, "The wire point"): every sample's uint8 H×W×3 pixels
// become [3, H, W] float32 planes through the HelloAck's table, in c.fin, and
// m becomes the float32 [N, 3, H, W] batch the plan as written makes, with
// F32 a view of c.fin. Without a table m is left as it came.
func (c *Client) finish(m *Batch) error {
	lut := c.ack.Table
	if lut == nil {
		return nil
	}
	if m.Dtype != tensor.Uint8 || m.U8 == nil || len(m.Shape) != 4 || m.Shape[0] != len(m.Indices) || m.Shape[3] != 3 {
		return fmt.Errorf("%w: batch %d is %s %v, a session with a tensor tail table takes uint8 [N,H,W,3]",
			ErrMalformed, m.GlobalID, m.Dtype, m.Shape)
	}
	n, h, w := m.Shape[0], m.Shape[1], m.Shape[2]
	per := 3 * h * w
	if cap(c.fin) < n*per {
		c.fin = make([]float32, n*per)
	}
	out := c.fin[:n*per]
	for i := range n {
		im := imaging.Image{W: w, H: h, Pix: m.U8[i*per : (i+1)*per]}
		im.MapInto(out[i*per:(i+1)*per], lut)
	}
	m.Dtype, m.Shape, m.U8, m.F32 = tensor.Float32, []int{n, 3, h, w}, nil, out
	return nil
}

// Close says goodbye, closes the connection and gives up the stream buffers.
func (c *Client) Close() error {
	c.buf, c.fin = nil, nil
	if c.conn == nil {
		return nil
	}
	c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	WriteFrame(c.conn, EncodeBye())
	err := c.conn.Close()
	c.setConn(nil)
	return err
}

// drop abandons the connection without protocol niceties (it is presumed
// broken), so the next call redials.
func (c *Client) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.setConn(nil)
	}
}

func (c *Client) readMessage(conn net.Conn) (any, error) {
	payload, err := ReadFrame(conn, DefaultMaxFrame)
	if err != nil {
		return nil, err
	}
	msg, err := DecodeMessage(payload)
	if err != nil {
		return nil, err
	}
	if e, ok := msg.(ErrorMsg); ok {
		return nil, &ServerError{Message: e.Message, Code: e.Code}
	}
	return msg, nil
}

// FetchStats summarizes a Run.
type FetchStats struct {
	Epochs  int
	Batches int
	Bytes   int64
	Retries int
	Elapsed time.Duration
	// Hist buckets per-batch arrival latency (time between consecutive
	// frames, or request-to-first-frame).
	Hist LatencyHist
}

// BatchesPerSec is the end-to-end streamed-batch throughput.
func (s *FetchStats) BatchesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Batches) / s.Elapsed.Seconds()
}

// Run streams epochs 0..epochs-1 of this client's shard, invoking onBatch
// (may be nil) for every decoded batch with its raw frame payload. Each epoch
// is one ShardReq naming the shard's IDs (shardIDs). Transient failures —
// connection refused, resets, mid-stream EOF, a frame that is not the one
// requested at its position — are retried with exponential backoff by
// reconnecting and re-requesting the failed epoch. Fatal ServerErrors abort
// immediately.
//
// Callback lifetime: b and payload are valid only until onBatch returns.
// Both point into buffers of this Client — heap memory the Client owns,
// never the server's frame memory, in-process or not — which the next frame
// overwrites: payload and b.U8 into the one receive buffer, b.F32 into the
// one buffer batches are finished in (or the receive buffer, for a plan with
// no table), views, not copies. A consumer that keeps a batch calls
// b.Clone(); one that keeps the frame bytes copies payload. The same holds
// for FetchShard and FetchShardHedged.
func (c *Client) Run(epochs int, onBatch func(b *Batch, payload []byte)) (*FetchStats, error) {
	stats := &FetchStats{}
	start := time.Now()
	defer func() { stats.Elapsed = time.Since(start) }()
	for e := 0; e < epochs; e++ {
		err := c.retry(e, fmt.Sprintf("epoch %d", e), stats, func() error {
			if err := c.Connect(); err != nil {
				return err
			}
			return c.fetch(e, c.shardIDs(), false, onBatch, stats)
		})
		if err != nil {
			return stats, err
		}
		stats.Epochs++
	}
	return stats, nil
}

// ConnectRetrying is Connect under Run's retry contract: a CodeBusy refusal
// (admission control asking this client to come back) and transient dial
// failures are retried up to Retries times on the client's jittered backoff;
// a fatal ServerError surfaces at once. Callers that need the handshake Ack
// before the first epoch use it in place of a bare Connect.
func (c *Client) ConnectRetrying() error {
	return c.retry(0, "connect", &FetchStats{}, c.Connect)
}

// retry runs op until it succeeds, the server refuses fatally, or Retries
// extra attempts are spent, dropping the connection and sleeping the
// jittered backoff between attempts. what names the operation in the final
// error; epoch is what OnRetry is told.
func (c *Client) retry(epoch int, what string, stats *FetchStats, op func() error) error {
	for attempt := 0; ; {
		err := op()
		if err == nil {
			return nil
		}
		var se *ServerError
		if errors.As(err, &se) && se.Code != CodeBusy {
			return err
		}
		// CodeBusy falls through: admission control asked this client to
		// come back later, and the jittered backoff below is exactly the
		// desynchronized retry the server is counting on.
		c.drop()
		if attempt >= c.cfg.Retries {
			return fmt.Errorf("serve: %s failed after %d attempts: %w", what, attempt+1, err)
		}
		attempt++
		stats.Retries++
		if c.cfg.OnRetry != nil {
			c.cfg.OnRetry(epoch, attempt, err)
		}
		c.cfg.Sleep(c.backoff(attempt))
	}
}

// backoff returns the sleep before retry attempt k (1-based) on the client's
// seeded jitter stream.
func (c *Client) backoff(attempt int) time.Duration {
	return Backoff(backoffBase, backoffMax, attempt, c.jitter)
}

// Backoff is the jittered sleep before retry attempt k (1-based):
// exponential from base, capped at ceil, then jittered into [d/2, d) by one
// draw from jitter. Without jitter, every client a server restart disconnects
// computes the identical schedule and the whole fleet reconnects in
// synchronized waves that re-overload the server in lockstep. serve.Client
// and cluster.Client both retry on it.
func Backoff(base, ceil time.Duration, attempt int, jitter *rng.Stream) time.Duration {
	d := base
	for i := 1; i < attempt && d < ceil; i++ {
		d *= 2
	}
	d = min(d, ceil)
	half := d / 2
	return half + time.Duration(jitter.Float64()*float64(half))
}

// shardIDs is this client's rank/world shard of the plan its HelloAck
// announced: IDs rank, rank+world, ... (Shard), in plan order.
func (c *Client) shardIDs() []int {
	ids := make([]int, ShardSize(c.ack.PlanBatches, c.cfg.Rank, c.cfg.World))
	for k := range ids {
		ids[k] = c.cfg.Rank + k*c.cfg.World
	}
	return ids
}

// FetchShard requests exactly the given global batch IDs of one epoch and
// streams them, invoking onBatch per decoded batch. It is single-shot: any
// failure (dial, mid-stream EOF, a digest or stream-shape mismatch) is
// returned without retrying, because the caller — a cluster router — must
// recompute which IDs are still unserved before re-requesting, possibly from
// a different node. The connection is dropped on error so the next call
// redials. An empty ids costs no round trip. b and payload are valid only
// until onBatch returns (see Run).
func (c *Client) FetchShard(epoch int, ids []int, onBatch func(b *Batch, payload []byte)) error {
	return c.fetch(epoch, ids, false, onBatch, nil)
}

// FetchShardHedged is FetchShard with the request marked speculative, so the
// serving node accounts hedge traffic separately on /metrics. The stream
// itself is identical — hedged batches are byte-identical to primaries. b and
// payload are valid only until onBatch returns (see Run).
func (c *Client) FetchShardHedged(epoch int, ids []int, onBatch func(b *Batch, payload []byte)) error {
	return c.fetch(epoch, ids, true, onBatch, nil)
}

// fetch sends one ShardReq for ids and consumes its stream. On any failure
// the connection is dropped — a ServerError leaves the socket as dead as an
// I/O failure, since the server closes after an Error frame — so the next
// call redials.
func (c *Client) fetch(epoch int, ids []int, hedge bool, onBatch func(*Batch, []byte), stats *FetchStats) error {
	if len(ids) == 0 {
		return nil
	}
	err := c.Connect()
	if err == nil {
		err = WriteFrame(c.conn, EncodeShardReq(ShardReq{Epoch: epoch, IDs: ids, Hedge: hedge}))
	}
	if err == nil {
		err = c.consumeEpoch(epoch, ids, onBatch, stats)
	}
	if err != nil {
		c.drop()
	}
	return err
}

// consumeEpoch reads the stream a ShardReq for ids asks for: exactly
// len(ids) Batch frames, the k-th of them batch ids[k] of epoch, or an Error
// in place of any of them. Each frame is checked against the digest in its
// header before anything decodes it, and against its request position before
// it is finished and handed to onBatch, so a swapped, dropped, duplicated,
// foreign-epoch or unrequested frame fails the stream before any callback
// sees it, and a callback never sees a corrupt batch. stats, when non-nil, is
// credited only when the whole stream arrived (a failed one is re-fetched
// whole, so crediting partial progress would double-count). Every frame lands
// in the client's one reused buffer, so whatever a callback does to the bytes
// it is lent cannot disturb the checks.
func (c *Client) consumeEpoch(epoch int, ids []int, onBatch func(*Batch, []byte), stats *FetchStats) error {
	var bytes int64
	var hist LatencyHist
	last := time.Now()
	for k, id := range ids {
		payload, err := c.readStreamFrame()
		if err != nil {
			return err
		}
		msg, err := DecodeMessage(payload)
		if err != nil {
			return err
		}
		m, ok := msg.(*Batch)
		if !ok {
			if e, isErr := msg.(ErrorMsg); isErr {
				return &ServerError{Message: e.Message, Code: e.Code}
			}
			return fmt.Errorf("serve: unexpected %T in epoch stream", msg)
		}
		if m.Epoch != epoch || m.GlobalID != id {
			return fmt.Errorf("serve: stream position %d holds batch %d of epoch %d, requested batch %d of epoch %d",
				k, m.GlobalID, m.Epoch, id, epoch)
		}
		if err := c.finish(m); err != nil {
			return err
		}
		now := time.Now()
		hist.Record(now.Sub(last))
		last = now
		bytes += int64(len(payload)) + FrameHeaderSize
		if onBatch != nil {
			onBatch(m, payload)
		}
	}
	if stats != nil {
		stats.Batches += len(ids)
		stats.Bytes += bytes
		stats.Hist.Merge(&hist)
	}
	return nil
}

// LatencyHist is a fixed power-of-two histogram of batch arrival latencies,
// bucket i covering (2^(i-1), 2^i] microseconds; the last bucket is open.
type LatencyHist struct {
	Counts [24]int64
	Total  int64
	Sum    time.Duration
	Max    time.Duration
}

// Record adds one observation.
func (h *LatencyHist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Counts[bucketOf(d)]++
	h.Total++
	h.Sum += d
	if d > h.Max {
		h.Max = d
	}
}

// Merge folds other into h.
func (h *LatencyHist) Merge(other *LatencyHist) {
	for i, n := range other.Counts {
		h.Counts[i] += n
	}
	h.Total += other.Total
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
}

// Mean is the average observation.
func (h *LatencyHist) Mean() time.Duration {
	if h.Total == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Total)
}

// Quantile returns the latency at quantile p (clamped to [0,1]) by linear
// interpolation inside the owning log bucket: the fraction f of the bucket's
// count below the target maps to lo + f*(hi-lo), where (lo, hi] are the
// bucket bounds. Observations that all land on a bucket boundary 2^k µs are
// reported exactly (Quantile(1) of such a histogram is 2^k µs), and the
// result is monotone in p. The open last bucket interpolates toward Max.
// The cluster router's hedging trigger is built on this: a node whose
// in-flight shard exceeds Quantile(HedgeQuantile) of recent cluster latency
// is presumed degraded.
func (h *LatencyHist) Quantile(p float64) time.Duration {
	if h.Total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(h.Total)
	var cum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		prev := cum
		cum += float64(n)
		if cum < target {
			continue
		}
		f := (target - prev) / float64(n)
		if f < 0 {
			f = 0
		}
		lo, hi := bucketBounds(i, h.Max)
		q := lo + time.Duration(f*float64(hi-lo))
		// A sparse top bucket interpolates past the largest observation;
		// no quantile can exceed it.
		if q > h.Max {
			q = h.Max
		}
		return q
	}
	return h.Max
}

// bucketBounds returns bucket i's (lo, hi] latency bounds; the open last
// bucket is capped by the observed max.
func bucketBounds(i int, max time.Duration) (lo, hi time.Duration) {
	if i > 0 {
		lo = time.Duration(1<<(i-1)) * time.Microsecond
	}
	if i == len(LatencyHist{}.Counts)-1 {
		hi = max
		if hi < lo {
			hi = lo
		}
		return lo, hi
	}
	return lo, time.Duration(1<<i) * time.Microsecond
}

func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	for i := 0; i < len(LatencyHist{}.Counts)-1; i++ {
		if us <= 1<<i {
			return i
		}
	}
	return len(LatencyHist{}.Counts) - 1
}

// bucketLabel renders bucket i's upper bound.
func bucketLabel(i int) string {
	if i == len(LatencyHist{}.Counts)-1 {
		return fmt.Sprintf(">%s", time.Duration(1<<(i-1))*time.Microsecond)
	}
	return fmt.Sprintf("<=%s", time.Duration(1<<i)*time.Microsecond)
}

// String renders the non-empty buckets as an ASCII histogram.
func (h *LatencyHist) String() string {
	if h.Total == 0 {
		return "(no samples)"
	}
	var peak int64
	for _, n := range h.Counts {
		if n > peak {
			peak = n
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "batch latency: n=%d mean=%v p50=%v p95=%v p99=%v max=%v\n",
		h.Total, h.Mean().Round(time.Microsecond),
		h.Quantile(0.50).Round(time.Microsecond),
		h.Quantile(0.95).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond),
		h.Max.Round(time.Microsecond))
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		bar := strings.Repeat("#", int(1+n*39/peak))
		fmt.Fprintf(&b, "  %10s %7d %s\n", bucketLabel(i), n, bar)
	}
	return strings.TrimRight(b.String(), "\n")
}
