package device

import (
	"fmt"
	"math"

	"phideep/internal/rng"
)

// FaultConfig parameterizes the injectable PCIe fault model. Faults are
// drawn per transfer *attempt* from a dedicated seeded generator, so a
// given (config, transfer sequence) pair always produces the same fault
// pattern — fault-injected runs are as reproducible as clean ones.
type FaultConfig struct {
	// Rate is the per-attempt failure probability in [0, 1).
	Rate float64
	// PermanentFrac is the fraction of faults that are permanent (the
	// transfer fails immediately with no retry, modeling a wedged link or
	// a poisoned DMA descriptor). The remainder are transient and retried.
	PermanentFrac float64
	// Seed seeds the fault stream.
	Seed uint64
	// MaxRetries bounds the retries after the first attempt of a transfer
	// (so a transfer is attempted at most MaxRetries+1 times). Zero
	// defaults to 4.
	MaxRetries int
	// BackoffBase is the simulated backoff before the first retry; each
	// further retry doubles it up to BackoffCap (capped exponential
	// backoff). Zeros default to 1 ms and 100 ms.
	BackoffBase float64
	// BackoffCap caps the per-retry backoff.
	BackoffCap float64
}

// Validate checks the fault parameters without filling defaults, so
// command-line front ends can reject a bad -fault-rate or -fault-retries at
// startup with a clear error instead of misbehaving deep inside a run. The
// same ranges are enforced again by EnableFaults and NewFaultStream.
func (c FaultConfig) Validate() error {
	if c.Rate < 0 || c.Rate >= 1 {
		return fmt.Errorf("device: fault rate %g outside [0, 1)", c.Rate)
	}
	if c.PermanentFrac < 0 || c.PermanentFrac > 1 {
		return fmt.Errorf("device: permanent fraction %g outside [0, 1]", c.PermanentFrac)
	}
	if c.MaxRetries < 0 || c.BackoffBase < 0 || c.BackoffCap < 0 {
		return fmt.Errorf("device: negative retry/backoff parameter")
	}
	return nil
}

// withDefaults validates cfg and fills the documented defaults.
func (c FaultConfig) withDefaults() (FaultConfig, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 1e-3
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 100e-3
	}
	if c.BackoffCap < c.BackoffBase {
		c.BackoffCap = c.BackoffBase
	}
	return c, nil
}

// backoff returns the capped exponential delay before retry number
// retry (0-based).
func (c FaultConfig) backoff(retry int) float64 {
	d := c.BackoffBase * math.Pow(2, float64(retry))
	if d > c.BackoffCap || math.IsInf(d, 1) {
		d = c.BackoffCap
	}
	return d
}

// FaultStream is the exported seam of the fault model: a seeded, validated
// source of deterministic fault decisions that other layers reuse for their
// own failure injection (internal/cluster draws per-node crash and
// straggler events from one stream per node). A given (config, draw
// sequence) pair always produces the same decisions.
type FaultStream struct {
	cfg FaultConfig
	rng *rng.RNG
}

// NewFaultStream validates cfg, fills its defaults and returns the armed
// deterministic stream.
func NewFaultStream(cfg FaultConfig) (*FaultStream, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &FaultStream{cfg: cfg, rng: rng.New(cfg.Seed)}, nil
}

// Draw decides the fate of one attempt: whether it faults, and whether the
// fault is of the permanent class (drawn with probability PermanentFrac).
// A zero Rate never faults and consumes nothing from the stream.
func (s *FaultStream) Draw() (fault, permanent bool) {
	if s == nil || s.cfg.Rate == 0 {
		return false, false
	}
	if s.rng.Float64() >= s.cfg.Rate {
		return false, false
	}
	return true, s.rng.Float64() < s.cfg.PermanentFrac
}

// Float64 exposes the stream's next uniform variate in [0, 1), for callers
// that layer further deterministic classifications on top of Draw (e.g.
// deciding whether a crash fault is a permanent node loss).
func (s *FaultStream) Float64() float64 { return s.rng.Float64() }

// Config returns the validated configuration the stream was built with
// (defaults filled).
func (s *FaultStream) Config() FaultConfig { return s.cfg }

// WithSeed returns a copy of the config re-seeded for a derived stream —
// the hook layers above use to give each replica (a serving worker, a
// cluster node) its own deterministic fault sequence from one base
// configuration, so a fleet-wide chaos run replays exactly.
func (c FaultConfig) WithSeed(seed uint64) FaultConfig {
	c.Seed = seed
	return c
}

// faultState is the device-side fault injector: the deterministic fault
// stream and the accumulated counters.
type faultState struct {
	stream *FaultStream

	transient int
	permanent int
	retries   int
	failed    int
}

// draw decides the fate of one transfer attempt.
func (f *faultState) draw() (fault, permanent bool) {
	if f == nil {
		return false, false
	}
	return f.stream.Draw()
}

// cfg returns the stream's validated configuration.
func (f *faultState) config() FaultConfig { return f.stream.cfg }

// EnableFaults arms the fault model for every subsequent transfer on the
// device. Enabling resets the fault stream and counters, so two runs armed
// with the same config see the same faults.
func (d *Device) EnableFaults(cfg FaultConfig) error {
	stream, err := NewFaultStream(cfg)
	if err != nil {
		return err
	}
	d.faults = &faultState{stream: stream}
	return nil
}

// TransferError reports a transfer abandoned by the fault model: either a
// permanent fault, or a transient-fault run that exhausted the retry
// budget. The simulated time of every failed attempt and backoff has
// already been charged to the transfer engine when the error is returned.
type TransferError struct {
	// Op is "copy-in" or "copy-out".
	Op string
	// Bytes is the size of the abandoned transfer.
	Bytes int64
	// Attempts is the number of attempts made (1 + retries).
	Attempts int
	// Permanent distinguishes a permanent fault from retry exhaustion.
	Permanent bool
}

// Error implements error.
func (e *TransferError) Error() string {
	cause := "transient faults exhausted retries"
	if e.Permanent {
		cause = "permanent fault"
	}
	return fmt.Sprintf("device: %s of %d B failed after %d attempt(s): %s", e.Op, e.Bytes, e.Attempts, cause)
}
