package session

import (
	"fmt"
	"math"

	"polardraw/internal/codec"
	"polardraw/internal/core"
)

// OpenOptions carries per-session decode configuration: the parameters
// a single pen session may override relative to the backend's base
// tracker configuration. Nil fields inherit the backend default; set
// fields override it, including explicit zeroes (BeamTopK 0 means
// window-only pruning, CommitLag 0 means unbounded decoder memory —
// both meaningful choices).
//
// OpenOptions travels over the shardrpc wire bit-exactly, so a session
// opened with options on a remote shard decodes identically to one
// opened with the same options in process (the local-vs-remote
// bit-equivalence suite pins this).
//
// Only stream-level parameters are available: the HMM grid (board,
// cell size, antennas) is shared by every session on a backend and
// cannot vary per pen.
type OpenOptions struct {
	// BeamTopK bounds the active Viterbi beam by count
	// (core.Config.BeamTopK).
	BeamTopK *int
	// CommitLag bounds the fixed-lag smoother's undecided window span
	// (core.Config.CommitLag).
	CommitLag *int
	// BeamAdaptive toggles the adaptive top-K controller
	// (core.Config.BeamAdaptive).
	BeamAdaptive *bool
	// Window overrides the preprocessing averaging window, seconds
	// (core.Config.Window). Must be > 0 and finite when set.
	Window *float64
	// SpuriousPhase overrides the adjacent-window phase-jump rejection
	// threshold, radians (core.Config.SpuriousPhase). Must be > 0 and
	// finite when set.
	SpuriousPhase *float64
}

// IsZero reports whether no option is set.
func (o OpenOptions) IsZero() bool {
	return o.BeamTopK == nil && o.CommitLag == nil && o.BeamAdaptive == nil &&
		o.Window == nil && o.SpuriousPhase == nil
}

// Validate rejects option values the tracker cannot honour.
func (o OpenOptions) Validate() error {
	if o.BeamTopK != nil && *o.BeamTopK < 0 {
		return fmt.Errorf("session: OpenOptions.BeamTopK %d < 0", *o.BeamTopK)
	}
	if o.CommitLag != nil && *o.CommitLag < 0 {
		return fmt.Errorf("session: OpenOptions.CommitLag %d < 0", *o.CommitLag)
	}
	if o.Window != nil && !positiveFinite(*o.Window) {
		return fmt.Errorf("session: OpenOptions.Window %g is not positive and finite", *o.Window)
	}
	if o.SpuriousPhase != nil && !positiveFinite(*o.SpuriousPhase) {
		return fmt.Errorf("session: OpenOptions.SpuriousPhase %g is not positive and finite", *o.SpuriousPhase)
	}
	if o.BeamAdaptive != nil && *o.BeamAdaptive &&
		o.BeamTopK != nil && *o.BeamTopK == 0 {
		return fmt.Errorf("session: OpenOptions.BeamAdaptive requires BeamTopK > 0")
	}
	return nil
}

// positiveFinite reports whether x is above zero and finite (NaN is
// neither).
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Apply overlays the set fields onto a base tracker configuration.
func (o OpenOptions) Apply(base core.Config) core.Config {
	if o.BeamTopK != nil {
		base.BeamTopK = *o.BeamTopK
	}
	if o.CommitLag != nil {
		base.CommitLag = *o.CommitLag
	}
	if o.BeamAdaptive != nil {
		base.BeamAdaptive = *o.BeamAdaptive
	}
	if o.Window != nil {
		base.Window = *o.Window
	}
	if o.SpuriousPhase != nil {
		base.SpuriousPhase = *o.SpuriousPhase
	}
	return base
}

// OpenOptions presence bits, in field order.
const (
	optBeamTopK = 1 << iota
	optCommitLag
	optBeamAdaptive
	optWindow
	optSpuriousPhase
)

// EncodeOpenOptions appends the one OpenOptions layout, shared by the
// journal's open record and the shard wire's hello and open frames: a
// presence bitmask byte, then each set field in bit order (ints as
// u64, BeamAdaptive as a byte, floats as f64). The bitmask keeps an
// explicit zero distinct from "inherit the backend default", so
// options survive the journal and the wire exactly.
func EncodeOpenOptions(e *codec.Encoder, o OpenOptions) {
	var mask uint8
	for i, set := range [...]bool{o.BeamTopK != nil, o.CommitLag != nil,
		o.BeamAdaptive != nil, o.Window != nil, o.SpuriousPhase != nil} {
		if set {
			mask |= 1 << i
		}
	}
	e.U8(mask)
	if o.BeamTopK != nil {
		e.I64(int64(*o.BeamTopK))
	}
	if o.CommitLag != nil {
		e.I64(int64(*o.CommitLag))
	}
	if o.BeamAdaptive != nil {
		e.Bool(*o.BeamAdaptive)
	}
	if o.Window != nil {
		e.F64(*o.Window)
	}
	if o.SpuriousPhase != nil {
		e.F64(*o.SpuriousPhase)
	}
}

// DecodeOpenOptions reads the layout EncodeOpenOptions writes. On a
// short read it returns zero options, with the error latched in d.
func DecodeOpenOptions(d *codec.Decoder) OpenOptions {
	var o OpenOptions
	mask := d.U8()
	if mask&optBeamTopK != 0 {
		v := int(d.I64())
		o.BeamTopK = &v
	}
	if mask&optCommitLag != 0 {
		v := int(d.I64())
		o.CommitLag = &v
	}
	if mask&optBeamAdaptive != 0 {
		v := d.Bool()
		o.BeamAdaptive = &v
	}
	if mask&optWindow != 0 {
		v := d.F64()
		o.Window = &v
	}
	if mask&optSpuriousPhase != 0 {
		v := d.F64()
		o.SpuriousPhase = &v
	}
	if d.Err() != nil {
		return OpenOptions{}
	}
	return o
}
