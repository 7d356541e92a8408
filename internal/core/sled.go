// Package core implements Storage Latency Estimation Descriptors — the
// paper's primary contribution.
//
// A SLED describes one contiguous section of a file together with the
// estimated latency to its first byte and the bandwidth at which the rest
// will arrive (paper Figure 2). A file's state is reported as a vector of
// SLEDs: walking the file from start to end, every discontinuity in
// storage level, latency or bandwidth starts a new SLED.
//
// The package also implements the kernel half of the paper's design
// (§4.1): a per-device table of (latency, bandwidth) entries filled at
// boot (FSLEDS_FILL, here Table.SetDevice fed by internal/lmbench), and
// the page-residency scan that builds the SLED vector for an open file
// (FSLEDS_GET, here Query).
package core

import (
	"fmt"
	"math"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// SLED is the paper's struct sled: a file section and its retrieval
// estimates. Latency is in seconds and Bandwidth in bytes/second —
// floating point, as in the paper, because the necessary range exceeds
// integers (nanoseconds to hundreds of seconds).
type SLED struct {
	Offset    int64   // byte offset into the file
	Length    int64   // length of the section in bytes
	Latency   float64 // seconds to the first byte
	Bandwidth float64 // bytes/second once flowing

	// Confidence is the staleness/degradation grade of the estimate, in
	// (0, 1]: 1 means the backing device has shown no recent faults and
	// the latency is the calibrated estimate; lower values mean observed
	// faults have inflated Latency by the device's health penalty, and
	// the true cost is correspondingly less certain. 0 means unknown: a
	// SLED built by hand rather than by Query, which consumers such as
	// sledlib.PruneDegraded keep rather than treat as degraded.
	Confidence float64
}

// End returns the offset one past the section.
func (s SLED) End() int64 { return s.Offset + s.Length }

// DeliveryTime estimates seconds to retrieve the whole section.
func (s SLED) DeliveryTime() float64 {
	if s.Length == 0 {
		return 0
	}
	return s.Latency + float64(s.Length)/s.Bandwidth
}

// SameEstimates reports whether two SLEDs carry identical performance
// estimates (the coalescing criterion).
func (s SLED) SameEstimates(o SLED) bool {
	return s.Latency == o.Latency && s.Bandwidth == o.Bandwidth && s.Confidence == o.Confidence
}

// String renders the SLED the way the gmc properties panel shows it. The
// confidence grade is appended only when degraded (in (0,1)), so output
// from healthy machines is unchanged.
func (s SLED) String() string {
	base := fmt.Sprintf("[%d,+%d) lat=%.6gs bw=%.4g MB/s", s.Offset, s.Length, s.Latency, s.Bandwidth/(1<<20))
	if s.Confidence > 0 && s.Confidence < 1 {
		base += fmt.Sprintf(" conf=%.2f", s.Confidence)
	}
	return base
}

// Entry is one row of the kernel sleds table: the measured performance of
// one storage level.
type Entry struct {
	Latency   float64 // seconds
	Bandwidth float64 // bytes/second
}

// valid reports whether the entry is usable.
func (e Entry) valid() bool { return e.Bandwidth > 0 && e.Latency >= 0 }

// ZoneEntry is the multi-zone extension the paper leaves as future work
// ("entries which account for the different bandwidths of different disk
// zones will be added in a future version"): an Entry that applies from a
// given device byte offset onward.
type ZoneEntry struct {
	FromByte int64
	Entry
}

// Load reports the live queueing state of a device. It is implemented by
// internal/iosched's Engine; the table uses it to make SLED latency
// estimates load-aware (§6: estimates "must reflect dynamic conditions"
// — under contention, queueing dominates positioning).
type Load interface {
	// QueueDepth is the number of requests waiting (not yet dispatched)
	// at the device.
	QueueDepth(id device.ID) int
	// InFlightRemaining is the service time the request currently on the
	// device still needs, as seen from virtual time now.
	InFlightRemaining(id device.ID, now simclock.Duration) simclock.Duration
}

// Table is the kernel sleds table: one entry for primary memory and one
// (or, with the zone extension, several) per device. It is filled at boot
// by measuring the devices — see internal/lmbench — exactly as the paper
// fills it from a boot script running lmbench.
type Table struct {
	mem     Entry
	haveMem bool
	load    Load

	// devs holds one record per device, indexed by device.ID: IDs are
	// dense registry indexes, so the row a query needs is an array read.
	// It grows to the highest ID the table has been told about.
	devs     []devRecord
	halfLife simclock.Duration

	// cfgEpoch advances on every mutation that can change which entry a
	// file offset maps to or whether load is folded in at all (SetMemory,
	// SetDevice, SetDeviceZones, SetLoad). Mutations the per-query device
	// sample already absorbs — fault observations, health decay and
	// resets, half-life changes, load *values* behind an attached source —
	// deliberately do not bump it; see the memo's overlay.
	cfgEpoch uint64
	// memo caches residency skeletons per inode; nil when memoization is
	// disabled (SetMemoCapacity(0)).
	memo *sledMemo
	// scratch holds the skeleton of a query that must not be cached (memo
	// disabled, or a staged device): built, overlaid and forgotten, with
	// its buffers kept so the uncached steady state allocates nothing.
	scratch memoEntry
}

// devRecord is one device's row of the table: its calibrated entry (the
// first zone's when the zone extension is installed) and the degradation
// state the fault observer feeds.
type devRecord struct {
	entry   Entry
	have    bool        // entry installed (SetDevice or SetDeviceZones)
	zones   []ZoneEntry // non-nil when the multi-zone extension is installed
	health  health
	faulted bool // health holds an observation made since the last ResetHealth
}

// health is the per-device degradation state the fault observer feeds.
// penalty is in seconds of extra first-byte latency and decays
// exponentially in virtual time; updated is the instant penalty was last
// brought current (decay is applied lazily).
type health struct {
	penalty float64
	updated simclock.Duration
}

// rec returns id's record, or nil for an ID beyond anything the table has
// been told about (device.None included).
func (t *Table) rec(id device.ID) *devRecord {
	if id < 0 || int(id) >= len(t.devs) {
		return nil
	}
	return &t.devs[id]
}

// grow returns id's record, extending the table to cover it. The pointer
// is valid until the next grow.
func (t *Table) grow(id device.ID) *devRecord {
	for int(id) >= len(t.devs) {
		t.devs = append(t.devs, devRecord{})
	}
	return &t.devs[id]
}

// DefaultHealthHalfLife is the virtual-time half-life of a device's fault
// penalty: long enough that a burst of faults keeps routing away from the
// device for the minutes an experiment run lasts, short enough that a
// recovered device wins traffic back.
const DefaultHealthHalfLife = 60 * simclock.Second

// NewTable returns an empty table with skeleton memoization enabled at
// DefaultMemoFiles capacity.
func NewTable() *Table {
	return &Table{
		halfLife: DefaultHealthHalfLife,
		memo:     newSledMemo(DefaultMemoFiles),
	}
}

// SetMemoCapacity bounds the skeleton memo at n files (a file past the
// bound empties it), dropping any cached skeletons; n <= 0 disables
// memoization entirely: every query then builds its skeleton into the
// table's scratch entry and discards it. Capacity only decides whether a
// skeleton is reused — the algorithm, and so every result bit, is the
// same at every setting. The knob exists for ablation and for capping
// memory on machines querying very many files.
func (t *Table) SetMemoCapacity(n int) {
	if n <= 0 {
		t.memo = nil
		return
	}
	t.memo = newSledMemo(n)
}

// MemoStats returns a copy of the skeleton memo's activity counters
// (zeroes when memoization is disabled).
func (t *Table) MemoStats() MemoStats {
	if t.memo == nil {
		return MemoStats{}
	}
	return t.memo.stats
}

// SetHealthHalfLife overrides the fault-penalty decay half-life; hl <= 0
// restores the default.
func (t *Table) SetHealthHalfLife(hl simclock.Duration) {
	if hl <= 0 {
		hl = DefaultHealthHalfLife
	}
	t.halfLife = hl
}

// ObserveFault records a fault on a device at virtual time now: the
// fault's extra service time is added to the device's latency penalty,
// which subsequent queries fold into the device's reported latency. The
// penalty decays as penalty * 2^(-dt/halfLife), so a device that stops
// faulting gradually earns its calibrated estimates back. This is the
// observer the kernel's retry loop feeds (vfs.Kernel.SetFaultObserver).
// A negative id (device.None) names no device and is ignored.
func (t *Table) ObserveFault(id device.ID, extra simclock.Duration, now simclock.Duration) {
	if id < 0 {
		return
	}
	h := t.healthAt(id, now)
	if h == nil {
		r := t.grow(id)
		r.faulted = true
		r.health = health{updated: now}
		h = &r.health
	}
	h.penalty += extra.Seconds()
}

// HealthPenalty reports the device's decayed latency penalty in seconds at
// virtual time now (0 for a device that has never faulted).
func (t *Table) HealthPenalty(id device.ID, now simclock.Duration) float64 {
	if h := t.healthAt(id, now); h != nil {
		return h.penalty
	}
	return 0
}

// confidence grades an estimate whose base latency has been inflated by a
// fault penalty (both in seconds).
func confidence(base, penalty float64) float64 {
	if penalty <= 0 {
		return 1
	}
	if base+penalty <= 0 {
		return 0
	}
	return base / (base + penalty)
}

// healthAt returns the device's health brought current to virtual time
// now, applying the lazy exponential decay. Returns nil when the device
// has never faulted. Negative dt (an observation from a stream clock that
// lags another) leaves the penalty as-is rather than inflating it.
func (t *Table) healthAt(id device.ID, now simclock.Duration) *health {
	r := t.rec(id)
	if r == nil || !r.faulted {
		return nil
	}
	h := &r.health
	if dt := now - h.updated; dt > 0 {
		if h.penalty > 0 {
			h.penalty *= math.Exp2(-float64(dt) / float64(t.halfLife))
			if h.penalty < 1e-12 {
				h.penalty = 0
			}
		}
		h.updated = now
	}
	return h
}

// SetMemory installs the primary-memory entry.
func (t *Table) SetMemory(e Entry) error {
	if !e.valid() {
		return fmt.Errorf("core: invalid memory entry %+v", e)
	}
	t.mem = e
	t.haveMem = true
	t.cfgEpoch++
	return nil
}

// Memory returns the primary-memory entry.
func (t *Table) Memory() (Entry, bool) { return t.mem, t.haveMem }

// SetDevice installs the single-zone entry for a device (FSLEDS_FILL).
func (t *Table) SetDevice(id device.ID, e Entry) error {
	if !e.valid() || id < 0 {
		return fmt.Errorf("core: invalid entry %+v for device %d", e, id)
	}
	r := t.grow(id)
	r.entry, r.have, r.zones = e, true, nil
	t.cfgEpoch++
	return nil
}

// SetDeviceZones installs the multi-zone extension for a device. Zones
// must be sorted by FromByte with the first at 0.
func (t *Table) SetDeviceZones(id device.ID, zs []ZoneEntry) error {
	if id < 0 {
		return fmt.Errorf("core: zones for invalid device %d", id)
	}
	if len(zs) == 0 {
		return fmt.Errorf("core: empty zone list for device %d", id)
	}
	if zs[0].FromByte != 0 {
		return fmt.Errorf("core: first zone for device %d starts at %d, want 0", id, zs[0].FromByte)
	}
	for i, z := range zs {
		if !z.valid() {
			return fmt.Errorf("core: invalid zone %d for device %d", i, id)
		}
		if i > 0 && zs[i].FromByte <= zs[i-1].FromByte {
			return fmt.Errorf("core: zones for device %d not strictly increasing", id)
		}
	}
	cp := make([]ZoneEntry, len(zs))
	copy(cp, zs)
	// Keep a representative single-zone entry too (first zone), so code
	// that does not understand zones still works.
	r := t.grow(id)
	r.entry, r.have, r.zones = zs[0].Entry, true, cp
	t.cfgEpoch++
	return nil
}

// Device returns the single-zone entry for a device.
func (t *Table) Device(id device.ID) (Entry, bool) {
	if r := t.rec(id); r != nil && r.have {
		return r.entry, true
	}
	return Entry{}, false
}

// SetLoad attaches a live queueing-state source. Subsequent queries fold
// the device's current queue depth and in-flight service time into the
// latency estimates; nil detaches. Attaching/detaching bumps the config
// epoch (the skeleton memo's sample shape changes); the *values* the
// source reports are re-sampled on every query and need no epoch.
func (t *Table) SetLoad(l Load) {
	t.load = l
	t.cfgEpoch++
}

// queued is the one place the queueing term is assembled: the first byte
// cannot arrive before the in-flight request drains and every queued
// request ahead is positioned, so
//
//	latency' = latency*(1+depth) + inFlightRemaining
//
// using the calibrated per-request latency as the service estimate for
// each queued request (transfer sizes of queued requests are unknown to
// the table, exactly as they are to a real kernel's estimator). Bandwidth
// is unchanged: once flowing, the stream runs at device speed. An idle
// device is left bit-exact (x*1 + 0 == x for the non-negative latencies
// the table admits).
func queued(e Entry, depth int, rem simclock.Duration) Entry {
	e.Latency = e.Latency*float64(1+depth) + rem.Seconds()
	return e
}

// zoneCursor walks one device's table entries in ascending device-offset
// order: the single flat entry, or the zone vector with a monotone index.
// The zero value (a device with no entry) yields the zero Entry; the
// overlay reports that device as missing when it samples it.
type zoneCursor struct {
	zones  []ZoneEntry // nil when the device has a single flat entry
	zi     int
	single Entry
}

// zoneCursor returns a cursor positioned at the start of the device.
func (t *Table) zoneCursor(id device.ID) zoneCursor {
	r := t.rec(id)
	if r == nil {
		return zoneCursor{}
	}
	return zoneCursor{zones: r.zones, single: r.entry}
}

// entryAt returns the entry in effect at device byte off and the device
// offset at which it stops applying (math.MaxInt64 for the last zone).
// Offsets must be presented in non-decreasing order: the cursor only
// advances, which is what makes the zoned walk O(runs + zones).
func (c *zoneCursor) entryAt(off int64) (Entry, int64) {
	if c.zones == nil {
		return c.single, math.MaxInt64
	}
	for c.zi+1 < len(c.zones) && c.zones[c.zi+1].FromByte <= off {
		c.zi++
	}
	until := int64(math.MaxInt64)
	if c.zi+1 < len(c.zones) {
		until = c.zones[c.zi+1].FromByte
	}
	return c.zones[c.zi].Entry, until
}

// overlaySample is one device's dynamic state frozen at the query
// instant: its queueing state and its decayed health penalty. Sampling
// once per device per query is exact because the reference per-page scan
// reads the same values for every page — the load source is consulted at
// one virtual instant, and HealthPenalty's lazy decay is idempotent at a
// fixed now. Comparable, so a repeat query under an identical sample can
// replay the previous output: all fields are value types, and the floats
// involved are never NaN (penalties and durations are finite and
// non-negative).
type overlaySample struct {
	load  bool
	depth int
	rem   simclock.Duration
	pen   float64
}

// estimate folds the sampled queueing state and health penalty into a
// base entry, in exactly the order the per-page scan applies them: load
// first, then the fault penalty, with confidence graded against the
// post-load latency.
func (s overlaySample) estimate(base Entry) (Entry, float64) {
	e := base
	if s.load {
		e = queued(e, s.depth, s.rem)
	}
	conf := 1.0
	if s.pen > 0 {
		conf = confidence(e.Latency, s.pen)
		e.Latency += s.pen
	}
	return e, conf
}

// Query is FSLEDS_GET: it reports the file's state as a SLED vector —
// resident sections carry the memory entry, on-device sections the
// backing device's entry (zone-dependent when zones are installed, with
// queueing state and fault degradation folded in). Residency is probed
// without perturbing replacement state.
//
// The scan has two halves (memo.go): a residency skeleton built from the
// cache's coalesced runs — each run maps to the memory entry in one step,
// each gap is classified with a monotone cursor over the device's zones —
// and a dynamic overlay that samples each backing device's load/health
// state once and estimates every segment, so the cost is O(runs + zones)
// instead of O(pages). The resulting vector is provably identical to the
// per-page scan's (see the equivalence tests against queryRef).
func Query(k *vfs.Kernel, t *Table, n *vfs.Inode) ([]SLED, error) {
	return QueryAppend(nil, k, t, n)
}

// QueryAppend is Query appending into dst's storage (dst's length is
// ignored): callers issuing many queries — the pick library's Refresh,
// file-set ordering — reuse one scratch vector across calls instead of
// allocating per query. The result is valid until the next QueryAppend
// reusing the same scratch.
//
// Every query is skeleton + overlay; the memo only decides whether the
// skeleton is reused. With the memo enabled (the default), a repeat query
// for a file whose residency and table config are unchanged skips the
// residency walk and replays the cached skeleton through the overlay.
// With the memo disabled, and always for files on a staged (HSM, remote
// mount) device — a stager scatters pages across levels per its own
// migration state, which no epoch covers — the skeleton is built into
// the table's scratch entry, overlaid, and never installed.
//
// The steady-state path is allocation-free on both routes
// (BenchmarkQueryAppend and BenchmarkQueryAppendCold pin allocs/op at
// zero); hotalloc enforces the same statically.
//
//sledlint:hotpath
func QueryAppend(dst []SLED, k *vfs.Kernel, t *Table, n *vfs.Inode) ([]SLED, error) {
	if n.IsDir() {
		return nil, fmt.Errorf("core: %q is a directory", n.Name())
	}
	if !t.haveMem {
		return nil, fmt.Errorf("core: sleds table has no memory entry (boot fill missing?)")
	}
	if n.Size() == 0 {
		return dst[:0], nil
	}
	if t.memo != nil && !k.DeviceStaged(n.Device()) {
		return t.memo.query(dst, k, t, n)
	}
	e := &t.scratch
	t.buildSkeleton(e, k, n)
	if _, err := t.sampleDevices(e, k, n); err != nil {
		return nil, err
	}
	return e.overlay(dst), nil
}

// Validate checks the structural invariants of a SLED vector for a file of
// the given size: sorted, contiguous, covering [0, size), maximally
// coalesced, positive estimates. Returns nil if all hold. Exported for the
// tests of every package that builds or consumes SLED vectors.
func Validate(sleds []SLED, size int64) error {
	if size == 0 {
		if len(sleds) != 0 {
			return fmt.Errorf("core: %d SLEDs for empty file", len(sleds))
		}
		return nil
	}
	if len(sleds) == 0 {
		return fmt.Errorf("core: no SLEDs for %d-byte file", size)
	}
	if sleds[0].Offset != 0 {
		return fmt.Errorf("core: first SLED starts at %d, want 0", sleds[0].Offset)
	}
	for i, s := range sleds {
		if s.Length <= 0 {
			return fmt.Errorf("core: SLED %d has non-positive length %d", i, s.Length)
		}
		if s.Bandwidth <= 0 || s.Latency < 0 {
			return fmt.Errorf("core: SLED %d has invalid estimates %+v", i, s)
		}
		if s.Confidence < 0 || s.Confidence > 1 {
			return fmt.Errorf("core: SLED %d has confidence %g outside [0,1]", i, s.Confidence)
		}
		if i > 0 {
			prev := sleds[i-1]
			if prev.End() != s.Offset {
				return fmt.Errorf("core: gap/overlap between SLED %d and %d", i-1, i)
			}
			if prev.SameEstimates(s) {
				return fmt.Errorf("core: SLEDs %d and %d not coalesced", i-1, i)
			}
		}
	}
	if last := sleds[len(sleds)-1]; last.End() != size {
		return fmt.Errorf("core: SLEDs end at %d, file size %d", last.End(), size)
	}
	return nil
}

// TotalDeliveryTime sums delivery estimates over a SLED vector.
//
// Plan selects the paper's attack_plan argument: PlanLinear charges each
// SLED's latency plus transfer in file order (one head repositioning per
// discontinuity); PlanBest assumes the reader visits low-latency sections
// first and the expensive latencies are paid only once per level change —
// modelled, as in our library, by charging each distinct latency class
// once plus all transfer times.
func TotalDeliveryTime(sleds []SLED, plan Plan) float64 {
	switch plan {
	case PlanLinear:
		var total float64
		for _, s := range sleds {
			total += s.DeliveryTime()
		}
		return total
	case PlanBest:
		var transfer float64
		latSeen := map[float64]bool{}
		var latOnce float64
		for _, s := range sleds {
			transfer += float64(s.Length) / s.Bandwidth
			if !latSeen[s.Latency] {
				latSeen[s.Latency] = true
				latOnce += s.Latency
			}
		}
		return transfer + latOnce
	default:
		panic(fmt.Sprintf("core: unknown plan %d", plan))
	}
}

// RangeDelivery estimates the delivery of bytes [off, off+n) from a SLED
// vector: the first overlapped section's latency plus each overlapped
// byte's transfer time at its section's bandwidth, and the lowest
// confidence among the overlapped sections. ok is false when no section
// overlaps the range.
//
//sledlint:hotpath
func RangeDelivery(sleds []SLED, off, n int64) (sec, conf float64, ok bool) {
	end := off + n
	conf = 1
	for i := range sleds {
		s := &sleds[i]
		if s.End() <= off || s.Offset >= end {
			continue
		}
		if !ok {
			sec += s.Latency
			ok = true
		}
		if s.Bandwidth > 0 {
			sec += float64(min(s.End(), end)-max(s.Offset, off)) / s.Bandwidth
		}
		if s.Confidence < conf {
			conf = s.Confidence
		}
	}
	return sec, conf, ok
}

// Plan is the attack_plan argument of sleds_total_delivery_time.
type Plan int

// Attack plans (paper §4.2: SLEDS_LINEAR and SLEDS_BEST).
const (
	PlanLinear Plan = iota
	PlanBest
)

// String names the plan.
func (p Plan) String() string {
	switch p {
	case PlanLinear:
		return "SLEDS_LINEAR"
	case PlanBest:
		return "SLEDS_BEST"
	default:
		return fmt.Sprintf("plan(%d)", int(p))
	}
}
