// Package feed is the streaming data plane (DESIGN.md §15): a dataset
// server whose lease/commit protocol carries the chunks of one data.Source
// to a trainer, N cluster nodes or M serve replicas. A trainer given no
// feed streams through a private single-consumer one.
//
// A Feed wraps a Source behind a validated data.ChunkPlan. Consumers
// subscribe before streaming starts; at the first lease the feed seals and
// the subscriber count becomes the shard count S. Consumer i's k-th lease
// is global chunk seq = k·S + i — deterministic shard assignment, so a
// single consumer walks the source's chunks in order, and S cluster nodes
// get exactly the per-node slices the cluster's sliced-input path cuts.
//
// Leases are bounded two ways. Each consumer holds at most Window
// uncommitted leases (hard: Lease returns ErrWindowFull) — the double
// buffering of Fig. 5 expressed as protocol. Across consumers the feed
// tracks a low watermark (the oldest position any live consumer still
// holds or has yet to reach); a lease issued more than IngestAhead chunks
// past it records a backpressure stall. The stall window is soft — the
// lease is still granted, so deterministic lockstep simulations cannot
// deadlock — but the ledger and feed.stalls metric expose exactly how hard
// a stalled or crashed consumer (§8 fault model) is holding back
// ingestion.
//
// With Config.Ledger the feed records every protocol event. Two runs at
// the same seed produce bit-identical ledgers, which is how the cluster's
// fault-injected determinism test pins the protocol down.
package feed

import (
	"errors"
	"fmt"
	"sync"

	"phideep/internal/data"
	"phideep/internal/metrics"
	"phideep/internal/tensor"
)

// Sentinel errors of the lease protocol.
var (
	// ErrExhausted reports that the consumer's next chunk is past the
	// feed's TotalChunks horizon.
	ErrExhausted = errors.New("feed: stream exhausted")
	// ErrWindowFull reports that the consumer already holds Window
	// uncommitted leases; commit one first.
	ErrWindowFull = errors.New("feed: lease window full")
	// ErrClosed reports an operation on a closed consumer.
	ErrClosed = errors.New("feed: consumer closed")
	// ErrSealed reports a Subscribe after streaming started.
	ErrSealed = errors.New("feed: already streaming, cannot subscribe")
)

// Config parameterizes a Feed.
type Config struct {
	// Plan is the chunk geometry every consumer streams under; it must
	// validate against the wrapped source.
	Plan data.ChunkPlan
	// TotalChunks bounds the stream: global chunk sequence numbers run in
	// [0, TotalChunks) and a consumer whose next seq falls past the end
	// gets ErrExhausted. Zero streams forever (serving).
	TotalChunks int
	// Window is the per-consumer bound on uncommitted leases; zero
	// defaults to 2 (double buffering).
	Window int
	// IngestAhead is the soft global bound, in chunks, on how far past
	// the low watermark a lease may run before it counts as a
	// backpressure stall. Zero defaults to Window × shards at seal time.
	IngestAhead int
	// Ledger enables event recording for determinism audits; off, the
	// feed only keeps counters.
	Ledger bool
}

// Lease names one chunk granted to one consumer.
type Lease struct {
	// Seq is the global chunk sequence number, Ordinal×shards+Shard.
	Seq int `json:"seq"`
	// Shard is the consumer's shard index; Ordinal is the consumer-local
	// chunk position.
	Shard   int `json:"shard"`
	Ordinal int `json:"ordinal"`
	// Start and N are the example range [Start, Start+N) the chunk covers
	// (wrapping modulo the source length).
	Start int `json:"start"`
	N     int `json:"n"`
}

// EventKind classifies ledger events.
type EventKind string

// The protocol events a ledger records.
const (
	EvSubscribe EventKind = "subscribe"
	EvLease     EventKind = "lease"
	EvCommit    EventKind = "commit"
	EvStall     EventKind = "stall"
	EvSeek      EventKind = "seek"
	EvAbort     EventKind = "abort"
	EvClose     EventKind = "close"
)

// Event is one ledger entry. At is the consumer-reported clock — simulated
// seconds for trainer and cluster consumers, so ledgers are deterministic —
// and is only meaningful on commit events.
type Event struct {
	Kind    EventKind `json:"kind"`
	Shard   int       `json:"shard"`
	Seq     int       `json:"seq"`
	Start   int       `json:"start,omitempty"`
	N       int       `json:"n,omitempty"`
	At      float64   `json:"at,omitempty"`
	Skipped bool      `json:"skipped,omitempty"`
	Reason  string    `json:"reason,omitempty"`
}

// Stats are the feed's protocol counters.
type Stats struct {
	// Shards is the sealed consumer count (0 before streaming starts).
	Shards int `json:"shards"`
	// Consumers is the number of currently open consumers.
	Consumers int `json:"consumers"`
	// Leases, Commits and Skips count granted leases, committed chunks,
	// and commits flagged as skipped by the consumer's fault handling.
	Leases  int `json:"leases"`
	Commits int `json:"commits"`
	Skips   int `json:"skips"`
	// Stalls counts leases granted beyond the IngestAhead window — the
	// backpressure a slow or dead consumer puts on ingestion.
	Stalls int `json:"stalls"`
	// Seeks and Aborts count repositionings and the outstanding leases
	// they (or Close) threw away.
	Seeks  int `json:"seeks"`
	Aborts int `json:"aborts"`
	// Outstanding is the current number of uncommitted leases across all
	// consumers; MaxOutstanding its high-water mark.
	Outstanding    int `json:"outstanding"`
	MaxOutstanding int `json:"max_outstanding"`
}

// Feed is the dataset server. All methods are safe for concurrent use.
type Feed struct {
	mu   sync.Mutex
	src  data.Source
	lsrc data.Labeled // nil for unlabeled feeds
	cfg  Config

	sealed      bool
	shards      int
	window      int
	ingestAhead int

	consumers []*Consumer
	events    []Event
	stats     Stats
}

// New builds a feed over src. cfg.Plan must validate and match the
// source's length.
func New(src data.Source, cfg Config) (*Feed, error) {
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	if cfg.Plan.SourceLen != src.Len() {
		return nil, fmt.Errorf("feed: plan covers %d examples, source has %d", cfg.Plan.SourceLen, src.Len())
	}
	if cfg.TotalChunks < 0 || cfg.Window < 0 || cfg.IngestAhead < 0 {
		return nil, fmt.Errorf("feed: negative bound in config %+v", cfg)
	}
	if cfg.Window == 0 {
		cfg.Window = 2
	}
	return &Feed{src: src, cfg: cfg, window: cfg.Window}, nil
}

// NewLabeled builds a feed whose chunks carry labels (FillLabels works).
func NewLabeled(src data.Labeled, cfg Config) (*Feed, error) {
	f, err := New(src, cfg)
	if err != nil {
		return nil, err
	}
	f.lsrc = src
	return f, nil
}

// Plan returns the feed's chunk geometry.
func (f *Feed) Plan() data.ChunkPlan { return f.cfg.Plan }

// Dim returns the example dimensionality of the wrapped source.
func (f *Feed) Dim() int { return f.src.Dim() }

// Len returns the example count of the wrapped source.
func (f *Feed) Len() int { return f.src.Len() }

// Labeled reports whether FillLabels is available.
func (f *Feed) Labeled() bool { return f.lsrc != nil }

// Shards returns the sealed shard count (0 before streaming starts).
func (f *Feed) Shards() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards
}

// Subscribe registers a consumer. All consumers must subscribe before the
// first lease seals the feed; the subscription order fixes shard indices.
func (f *Feed) Subscribe(name string) (*Consumer, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed {
		return nil, ErrSealed
	}
	c := &Consumer{f: f, name: name, shard: len(f.consumers)}
	f.consumers = append(f.consumers, c)
	f.stats.Consumers++
	f.record(Event{Kind: EvSubscribe, Shard: c.shard})
	if metrics.Enabled() {
		mConsumers.Set(float64(f.stats.Consumers))
	}
	return c, nil
}

// Stats returns a snapshot of the protocol counters.
func (f *Feed) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	s.Shards = f.shards
	return s
}

// Events returns a copy of the ledger (nil unless Config.Ledger).
func (f *Feed) Events() []Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.events == nil {
		return nil
	}
	out := make([]Event, len(f.events))
	copy(out, f.events)
	return out
}

// Fill streams the leased chunk into dst (l.N × Dim). The lease must be
// outstanding — the protocol's guard against reading data that was never
// granted or already committed.
func (f *Feed) Fill(l Lease, dst *tensor.Matrix) error {
	if err := f.checkOutstanding(l); err != nil {
		return err
	}
	f.src.Chunk(l.Start, l.N, dst)
	return nil
}

// FillLabels streams the leased chunk's one-hot labels into dst
// (l.N × classes). The feed must be labeled and the lease outstanding.
func (f *Feed) FillLabels(l Lease, classes int, dst *tensor.Matrix) error {
	if f.lsrc == nil {
		return fmt.Errorf("feed: source is not labeled")
	}
	if err := f.checkOutstanding(l); err != nil {
		return err
	}
	if dst.Rows != l.N || dst.Cols != classes {
		return fmt.Errorf("feed: label destination %dx%d, want %dx%d", dst.Rows, dst.Cols, l.N, classes)
	}
	dst.Zero()
	n := f.src.Len()
	for i := 0; i < l.N; i++ {
		lab := f.lsrc.Label((l.Start + i) % n)
		if lab < 0 || lab >= classes {
			return fmt.Errorf("feed: source label %d outside [0, %d)", lab, classes)
		}
		dst.RowView(i)[lab] = 1
	}
	return nil
}

// Labels returns the class indices of the leased chunk's examples — what
// bulk scoring checks predictions against, where training wants
// FillLabels' one-hot rows. The feed must be labeled and the lease
// outstanding.
func (f *Feed) Labels(l Lease) ([]int, error) {
	if f.lsrc == nil {
		return nil, fmt.Errorf("feed: source is not labeled")
	}
	if err := f.checkOutstanding(l); err != nil {
		return nil, err
	}
	out := make([]int, l.N)
	n := f.src.Len()
	for i := range out {
		out[i] = f.lsrc.Label((l.Start + i) % n)
	}
	return out, nil
}

func (f *Feed) checkOutstanding(l Lease) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if l.Shard < 0 || l.Shard >= len(f.consumers) {
		return fmt.Errorf("feed: lease for unknown shard %d", l.Shard)
	}
	c := f.consumers[l.Shard]
	for _, o := range c.outstanding {
		if o.Seq == l.Seq {
			return nil
		}
	}
	return fmt.Errorf("feed: chunk %d is not leased by shard %d", l.Seq, l.Shard)
}

// record appends e to the ledger when enabled. Callers hold f.mu.
func (f *Feed) record(e Event) {
	if f.cfg.Ledger {
		f.events = append(f.events, e)
	}
}

// seal fixes the shard count at the first lease. Callers hold f.mu.
func (f *Feed) seal() {
	if f.sealed {
		return
	}
	f.sealed = true
	f.shards = len(f.consumers)
	f.ingestAhead = f.cfg.IngestAhead
	if f.ingestAhead == 0 {
		f.ingestAhead = f.window * f.shards
	}
}

// lowWatermark is the oldest global position any open consumer still holds
// (its oldest outstanding lease) or has yet to reach (its next seq).
// Callers hold f.mu.
func (f *Feed) lowWatermark() int {
	low := -1
	for _, c := range f.consumers {
		if c.closed {
			continue
		}
		p := c.pos*f.shards + c.shard
		if len(c.outstanding) > 0 {
			p = c.outstanding[0].Seq
		}
		if low < 0 || p < low {
			low = p
		}
	}
	return low
}

// Consumer is one subscriber's cursor into the feed. A Consumer's methods
// are safe to call concurrently with other consumers' — but a single
// Consumer is a single logical stream and must not be shared without
// external ordering.
type Consumer struct {
	f           *Feed
	name        string
	shard       int
	pos         int // next consumer-local ordinal
	outstanding []Lease
	closed      bool
}

// Name returns the subscription name; Shard the shard index.
func (c *Consumer) Name() string { return c.name }

// Shard returns the consumer's shard index.
func (c *Consumer) Shard() int { return c.shard }

// Plan returns the feed's chunk geometry.
func (c *Consumer) Plan() data.ChunkPlan { return c.f.cfg.Plan }

// Dim returns the feed's example width; Labeled whether it serves labels.
func (c *Consumer) Dim() int { return c.f.Dim() }

// Labeled reports whether the feed serves labels.
func (c *Consumer) Labeled() bool { return c.f.Labeled() }

// Window returns the feed's bound on this consumer's uncommitted leases.
func (c *Consumer) Window() int { return c.f.window }

// Pos returns the next consumer-local ordinal Lease would grant.
func (c *Consumer) Pos() int {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	return c.pos
}

// Fill streams the leased chunk into dst — shorthand for [Feed.Fill].
func (c *Consumer) Fill(l Lease, dst *tensor.Matrix) error { return c.f.Fill(l, dst) }

// FillLabels streams the leased chunk's one-hot labels into dst —
// shorthand for [Feed.FillLabels].
func (c *Consumer) FillLabels(l Lease, classes int, dst *tensor.Matrix) error {
	return c.f.FillLabels(l, classes, dst)
}

// Labels returns the leased chunk's class indices — shorthand for
// [Feed.Labels].
func (c *Consumer) Labels(l Lease) ([]int, error) { return c.f.Labels(l) }

// Lease grants the consumer's next chunk. The first Lease on any consumer
// seals the feed. Returns ErrWindowFull when the consumer holds Window
// uncommitted leases, ErrExhausted past the TotalChunks horizon.
func (c *Consumer) Lease() (Lease, error) {
	f := c.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if c.closed {
		return Lease{}, ErrClosed
	}
	f.seal()
	if len(c.outstanding) >= f.window {
		return Lease{}, ErrWindowFull
	}
	seq := c.pos*f.shards + c.shard
	if f.cfg.TotalChunks > 0 && seq >= f.cfg.TotalChunks {
		return Lease{}, ErrExhausted
	}
	l := Lease{
		Seq: seq, Shard: c.shard, Ordinal: c.pos,
		Start: f.cfg.Plan.ChunkStart(seq), N: f.cfg.Plan.ChunkExamples,
	}
	c.pos++
	c.outstanding = append(c.outstanding, l)
	f.stats.Leases++
	f.stats.Outstanding++
	if f.stats.Outstanding > f.stats.MaxOutstanding {
		f.stats.MaxOutstanding = f.stats.Outstanding
	}
	f.record(Event{Kind: EvLease, Shard: c.shard, Seq: seq, Start: l.Start, N: l.N})
	if low := f.lowWatermark(); seq-low >= f.ingestAhead {
		// Backpressure: some consumer is holding the stream back more
		// than the ingest window. Soft by design — granting anyway keeps
		// lockstep simulations deadlock-free — but every such lease is
		// ledgered and counted.
		f.stats.Stalls++
		f.record(Event{Kind: EvStall, Shard: c.shard, Seq: seq,
			Reason: fmt.Sprintf("lag %d >= ahead %d", seq-low, f.ingestAhead)})
		if metrics.Enabled() {
			mStalls.Inc()
		}
	}
	if metrics.Enabled() {
		mLeases.Inc()
		mOccupancy.Set(float64(f.stats.Outstanding))
	}
	return l, nil
}

// Commit returns a leased chunk to the feed once the consumer has drained
// it. at is the consumer's clock (simulated seconds for trainer/cluster
// consumers); skipped flags a chunk the consumer abandoned under the fault
// model (trained on stale data instead).
func (c *Consumer) Commit(l Lease, at float64, skipped bool) error {
	f := c.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	for i, o := range c.outstanding {
		if o.Seq == l.Seq {
			c.outstanding = append(c.outstanding[:i], c.outstanding[i+1:]...)
			f.stats.Commits++
			f.stats.Outstanding--
			if skipped {
				f.stats.Skips++
				if metrics.Enabled() {
					mSkips.Inc()
				}
			}
			f.record(Event{Kind: EvCommit, Shard: c.shard, Seq: l.Seq, At: at, Skipped: skipped})
			if metrics.Enabled() {
				mCommits.Inc()
				mOccupancy.Set(float64(f.stats.Outstanding))
			}
			return nil
		}
	}
	return fmt.Errorf("feed: commit of chunk %d not leased by shard %d", l.Seq, c.shard)
}

// Seek aborts the consumer's outstanding leases and repositions its cursor
// at the consumer-local ordinal — how a rejoining cluster node or a
// resumed trainer re-subscribes at its checkpointed position.
func (c *Consumer) Seek(ordinal int) error {
	if ordinal < 0 {
		return fmt.Errorf("feed: seek to negative ordinal %d", ordinal)
	}
	f := c.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.abort()
	c.pos = ordinal
	f.stats.Seeks++
	f.record(Event{Kind: EvSeek, Shard: c.shard, Seq: ordinal*max(f.shards, 1) + c.shard})
	if metrics.Enabled() {
		mSeeks.Inc()
		mOccupancy.Set(float64(f.stats.Outstanding))
	}
	return nil
}

// Close aborts the consumer's outstanding leases and removes it from the
// low-watermark set, so a permanently lost node stops backpressuring the
// feed. Closing twice is a no-op.
func (c *Consumer) Close() {
	f := c.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if c.closed {
		return
	}
	c.abort()
	c.closed = true
	f.stats.Consumers--
	f.record(Event{Kind: EvClose, Shard: c.shard})
	if metrics.Enabled() {
		mConsumers.Set(float64(f.stats.Consumers))
		mOccupancy.Set(float64(f.stats.Outstanding))
	}
}

// abort drops the consumer's outstanding leases. Callers hold f.mu.
func (c *Consumer) abort() {
	for _, o := range c.outstanding {
		c.f.stats.Aborts++
		c.f.stats.Outstanding--
		c.f.record(Event{Kind: EvAbort, Shard: c.shard, Seq: o.Seq})
	}
	c.outstanding = c.outstanding[:0]
}
