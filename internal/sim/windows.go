package sim

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/task"
	"repro/internal/timeu"
)

// serviceWindows holds a channel's availability over an epoch.
type serviceWindows struct {
	// intervals are the times the channel serves tasks, sorted, disjoint.
	intervals []interval
	// blockStarts marks instants at which a fail-silent shutdown cut a
	// window short; a job executing at such an instant is aborted. It is
	// nil in the common fault-free case — readers index it as a nil map.
	blockStarts map[timeu.Ticks]bool
}

// modeIntervals is a per-mode interval table, indexed by task.Mode. It
// replaces the map[task.Mode][]interval the window plumbing used to
// allocate per epoch: the mode space is tiny and fixed, so an array
// costs nothing to copy and nothing to index.
type modeIntervals [task.NumModes][]interval

// windowSpec describes the platform's periodic time structure in ticks:
// per-mode usable windows and overhead windows as offsets within one
// period. A Config produces one window per mode; a layout.Layout may
// produce several (the multi-quantum extension).
type windowSpec struct {
	period   timeu.Ticks
	usable   modeIntervals
	overhead modeIntervals
}

// specFromConfig converts a Config to its window spec. Usable starts
// are rounded down and ends up, so rounding can only widen the supply
// relative to the float64 analysis (a 1-tick overlap with neighbouring
// overhead time is harmless: overheads execute no tasks).
func specFromConfig(cfg core.Config) windowSpec {
	spec := windowSpec{period: timeu.FromUnits(cfg.P)}
	for _, m := range task.Modes() {
		slotStart := cfg.SlotStart(m)
		uFrom := timeu.FromUnitsDown(slotStart + cfg.O.Of(m))
		uTo := timeu.FromUnitsUp(slotStart + cfg.Q.Of(m))
		if uTo > spec.period {
			uTo = spec.period
		}
		if uFrom > uTo {
			uFrom = uTo
		}
		if uTo > uFrom {
			spec.usable[m] = []interval{{From: uFrom, To: uTo}}
		}
		oFrom := timeu.FromUnitsDown(slotStart)
		if uFrom > oFrom {
			spec.overhead[m] = []interval{{From: oFrom, To: uFrom}}
		}
	}
	return spec
}

// repeatRange materialises periodic per-period offsets over [from, to)
// into dst (pass dst[:0] to reuse a scratch buffer), clipping at both
// ends. Epoch boundaries sit on period multiples, so windows never
// straddle them; the general clipping keeps partial first periods
// correct anyway.
func repeatRange(dst []interval, offsets []interval, period, from, to timeu.Ticks) []interval {
	base := from - from%period
	for ; base < to; base += period {
		for _, w := range offsets {
			iv := interval{From: base + w.From, To: base + w.To}
			if iv.From >= to {
				break
			}
			if iv.To > to {
				iv.To = to
			}
			if iv.From < from {
				iv.From = from
			}
			if iv.length() > 0 {
				dst = append(dst, iv)
			}
		}
	}
	return dst
}

// periodicLength returns the total length, inside [from, to), of the
// windows the offsets repeat every period: whole periods times the
// per-period lengths, plus the clipped remainders. It is the summed
// length of the windows repeatRange materialises over the same range,
// without materialising them. Offsets must lie within [0, period].
func periodicLength(offsets []interval, period, from, to timeu.Ticks) timeu.Ticks {
	if to <= from {
		return 0
	}
	return lengthBefore(offsets, period, to) - lengthBefore(offsets, period, from)
}

// lengthBefore returns the total length of the periodic windows inside
// [0, t), t ≥ 0.
func lengthBefore(offsets []interval, period, t timeu.Ticks) timeu.Ticks {
	k, r := t/period, t%period
	var n timeu.Ticks
	for _, w := range offsets {
		n += k*w.length() + max(0, min(w.To, r)-w.From)
	}
	return n
}

// channelFaults appends onto dst the fault intervals that afflict the
// given channel: faults on one of the channel's cores, clipped to
// [from, to).
func channelFaults(dst []interval, id ChannelID, schedule []faults.Fault, from, to timeu.Ticks) []interval {
	mark := len(dst)
	for _, f := range schedule {
		ch, err := platform.CoreChannel(id.Mode, f.Core)
		if err != nil || ch != id.Ch {
			continue
		}
		iv := interval{From: f.At, To: f.End()}
		if iv.From >= to || iv.To <= from {
			continue
		}
		if iv.To > to {
			iv.To = to
		}
		if iv.From < from {
			iv.From = from
		}
		if iv.length() > 0 {
			dst = append(dst, iv)
		}
	}
	sortIntervals(dst[mark:])
	return dst
}

// serviceFor computes the channel's service availability over
// [from, to): the mode's usable windows, minus — for fail-silent
// channels — the intervals during which the checker has blocked the
// channel because one of its cores is faulty. FT channels keep serving
// through faults (majority vote); NF channels keep serving too, but
// corruption is tracked separately (corruptFor).
//
// The result's intervals and block instants are built in e's epoch
// scratch buffers, valid until the engine's next provisioning —
// exactly the lifetime an epoch needs.
func (e *engine) serviceFor(spec windowSpec, schedule []faults.Fault, from, to timeu.Ticks) serviceWindows {
	id := e.id
	if id.Mode != task.FS {
		e.svcBuf = repeatRange(e.svcBuf[:0], spec.usable[id.Mode], spec.period, from, to)
		return serviceWindows{intervals: e.svcBuf}
	}
	e.winBuf = repeatRange(e.winBuf[:0], spec.usable[id.Mode], spec.period, from, to)
	windows := e.winBuf
	sw := serviceWindows{}
	clear(e.blockBuf)
	e.faultBuf = channelFaults(e.faultBuf[:0], id, schedule, from, to)
	blocks := e.faultBuf
	out := e.svcBuf[:0]
	for _, w := range windows {
		cur := w
		for _, b := range blocks {
			if !cur.intersects(b.From, b.To) {
				continue
			}
			if b.From > cur.From {
				// The block cuts a serving segment short: whatever job is
				// executing at b.From must be aborted.
				out = append(out, interval{From: cur.From, To: b.From})
				if e.blockBuf == nil {
					e.blockBuf = map[timeu.Ticks]bool{}
				}
				e.blockBuf[b.From] = true
				sw.blockStarts = e.blockBuf
			}
			if b.To >= cur.To {
				cur = interval{From: cur.To, To: cur.To} // window fully consumed
				break
			}
			cur = interval{From: max(b.To, cur.From), To: cur.To}
		}
		if cur.length() > 0 {
			out = append(out, cur)
		}
	}
	sortIntervals(out)
	e.svcBuf = out
	sw.intervals = out
	return sw
}

// corruptFor returns, for NF channels, the intervals during which
// execution on the channel is corrupted over [from, to): the
// intersection of the channel's fault intervals with its service
// windows. Other modes return nil (FT masks, FS blocks instead of
// corrupting). Like serviceFor, the result lives in the engine's epoch
// scratch buffers.
func (e *engine) corruptFor(spec windowSpec, schedule []faults.Fault, from, to timeu.Ticks) []interval {
	id := e.id
	if id.Mode != task.NF {
		return nil
	}
	e.faultBuf = channelFaults(e.faultBuf[:0], id, schedule, from, to)
	if len(e.faultBuf) == 0 {
		return nil
	}
	e.winBuf = repeatRange(e.winBuf[:0], spec.usable[id.Mode], spec.period, from, to)
	windows := e.winBuf
	out := e.corruptBuf[:0]
	for _, f := range e.faultBuf {
		for _, w := range windows {
			lo, hi := max(f.From, w.From), min(f.To, w.To)
			if hi > lo {
				out = append(out, interval{From: lo, To: hi})
			}
		}
	}
	sortIntervals(out)
	e.corruptBuf = out
	return out
}
