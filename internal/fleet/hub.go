package fleet

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"net/http"
	"sort"
	"sync"

	"cchunter/internal/core"
	"cchunter/internal/obs"
)

// Update is one shard→hub verdict submission. Seq orders a single
// stream's updates; the hub drops stale (out-of-order) submissions and
// dedupes repeats, so a slow interim can never overwrite a newer
// verdict and an unchanged verdict never churns fleet state.
type Update struct {
	Key    Key
	Seq    uint64
	Epoch  int
	Cycle  uint64
	Final  bool
	Report core.Report
}

// StreamState is the hub's current picture of one stream.
type StreamState struct {
	Key   Key    `json:"key"`
	Seq   uint64 `json:"seq"`
	Epoch int    `json:"epoch"`
	Cycle uint64 `json:"cycle"`
	// Final reports whether the latest applied update was an epoch-end
	// verdict (as opposed to an interim preview).
	Final bool `json:"final"`
	// Detected, Confidence, and Failure mirror the latest verdict.
	Detected   bool    `json:"detected"`
	Confidence float64 `json:"confidence"`
	Failure    string  `json:"failure,omitempty"`
	// PeakLag is the oscillation verdict's fundamental lag when the
	// cache detector fired (0 otherwise) — the cross-host correlation
	// signature.
	PeakLag int `json:"peakLag,omitempty"`
	// OnsetCycle is the earliest fired streaming onset estimate.
	OnsetCycle uint64 `json:"onsetCycle,omitempty"`
	// EventsShed is the latest final verdict's shed count.
	EventsShed uint64 `json:"eventsShed,omitempty"`
	// Updates/Deduped/Stale count this stream's applied, deduplicated,
	// and out-of-order-dropped submissions.
	Updates uint64 `json:"updates"`
	Deduped uint64 `json:"deduped,omitempty"`
	Stale   uint64 `json:"stale,omitempty"`
	// FinalEpochs and DetectedEpochs count completed epochs and how
	// many of them ended detected.
	FinalEpochs    int `json:"finalEpochs"`
	DetectedEpochs int `json:"detectedEpochs"`

	fp uint64
}

// TenantStats is one tenant's backpressure/shed accounting.
type TenantStats struct {
	// Streams is how many streams the tenant owns.
	Streams int `json:"streams"`
	// Produced and Shed are lifetime event counts; Produced-Shed
	// events reached the tenant's detectors.
	Produced uint64 `json:"produced"`
	Shed     uint64 `json:"shed"`
	// Backlog is the queued-batch depth at the last epoch boundary.
	Backlog int `json:"backlog"`
}

// State is a point-in-time fleet snapshot, shaped for JSON.
type State struct {
	// Streams is every stream's state, sorted by key for deterministic
	// serialization.
	Streams []StreamState `json:"streams"`
	// Tenants maps tenant name to its accounting.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
	// Correlations are cross-host channel signatures (see correlate.go).
	Correlations []Correlation `json:"correlations,omitempty"`
	// Aggregates.
	Updates         uint64 `json:"updates"`
	Deduped         uint64 `json:"deduped"`
	Stale           uint64 `json:"stale"`
	Finals          uint64 `json:"finals"`
	DetectedStreams int    `json:"detectedStreams"`
}

// Hub aggregates verdicts from every shard in the fleet. All methods
// are safe for concurrent use; shards on different hosts submit from
// their own goroutines.
type Hub struct {
	mu       sync.Mutex
	streams  map[Key]*StreamState
	tenants  map[string]*TenantStats
	hosts    map[string]hostTotals
	corr     []Correlation
	corrOK   bool
	updates  uint64
	deduped  uint64
	stale    uint64
	finals   uint64
	detected int

	reg *obs.Registry
}

// NewHub returns an empty hub recording aggregates into reg (nil is
// fine).
func NewHub(reg *obs.Registry) *Hub { return newHub(reg, 0) }

// newHub is NewHub with the stream map sized for the given number of
// streams, so registering a fleet's streams never rehashes it.
func newHub(reg *obs.Registry, streams int) *Hub {
	return &Hub{
		streams: make(map[Key]*StreamState, streams),
		tenants: make(map[string]*TenantStats),
		reg:     reg,
	}
}

// register pre-creates a stream's state (and its tenant's accounting
// row) so a snapshot before the first verdict still lists the fleet's
// full shape.
func (h *Hub) register(k Key) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.streams[k]; !ok {
		h.streams[k] = &StreamState{Key: k, Confidence: 1}
	}
	t := h.tenant(k.Tenant)
	t.Streams++
	h.reg.Gauge("fleet.hub.streams").Set(int64(len(h.streams)))
}

func (h *Hub) tenant(name string) *TenantStats {
	t, ok := h.tenants[name]
	if !ok {
		t = &TenantStats{}
		h.tenants[name] = t
	}
	return t
}

// Submit applies one update. It returns true when the update changed
// fleet state, false when it was dropped as stale (Seq not newer than
// the last applied) or deduplicated (identical verdict fingerprint
// with the same finality as the current state).
func (h *Hub) Submit(u Update) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.streams[u.Key]
	if !ok {
		st = &StreamState{Key: u.Key, Confidence: 1}
		h.streams[u.Key] = st
		h.tenant(u.Key.Tenant).Streams++
		h.reg.Gauge("fleet.hub.streams").Set(int64(len(h.streams)))
	}
	if u.Seq <= st.Seq {
		st.Stale++
		h.stale++
		h.reg.Counter("fleet.hub.stale").Inc()
		return false
	}
	fp := fingerprint(u.Report)
	if fp == st.fp && u.Final == st.Final && st.Updates > 0 {
		// An unchanged verdict: advance the cursor, count the repeat,
		// but leave the materialized state (and correlation cache)
		// untouched.
		st.Seq = u.Seq
		st.Deduped++
		h.deduped++
		h.reg.Counter("fleet.hub.deduped").Inc()
		return false
	}
	wasDetected := st.Detected
	st.Seq = u.Seq
	st.Epoch = u.Epoch
	st.Cycle = u.Cycle
	st.Final = u.Final
	st.fp = fp
	st.Updates++
	st.Detected = u.Report.Detected
	st.Confidence = u.Report.Confidence
	st.Failure = u.Report.Failure
	st.PeakLag = 0
	if osc := u.Report.Oscillation; osc != nil && osc.Detected {
		st.PeakLag = osc.Best.FundamentalLag
	}
	st.OnsetCycle = 0
	if s := u.Report.Streaming; s != nil {
		st.EventsShed = s.EventsShed
		for _, o := range s.Onsets {
			if o.Detected && (st.OnsetCycle == 0 || o.OnsetCycle < st.OnsetCycle) {
				st.OnsetCycle = o.OnsetCycle
			}
		}
	}
	h.updates++
	h.reg.Counter("fleet.hub.updates").Inc()
	if u.Final {
		st.FinalEpochs++
		h.finals++
		h.reg.Counter("fleet.hub.finals").Inc()
		if st.Detected {
			st.DetectedEpochs++
		}
	}
	if st.Detected != wasDetected {
		if st.Detected {
			h.detected++
		} else {
			h.detected--
		}
		h.reg.Gauge("fleet.hub.detected").Set(int64(h.detected))
	}
	h.corrOK = false
	return true
}

// hostTotals is one host's latest lifetime accounting report.
type hostTotals struct {
	tenant   string
	produced uint64
	shed     uint64
	backlog  int
}

// accountHost records one host's lifetime counters and recomputes its
// tenant's row (a tenant spans several hosts, each reporting its own
// totals). The totals are also published as registry gauges so the
// metrics endpoint shows the same numbers the fleet state does.
func (h *Hub) accountHost(hostName, tenant string, produced, shed uint64, backlog int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hosts == nil {
		h.hosts = make(map[string]hostTotals)
	}
	h.hosts[hostName] = hostTotals{tenant: tenant, produced: produced, shed: shed, backlog: backlog}
	t := h.tenant(tenant)
	t.Produced, t.Shed, t.Backlog = 0, 0, 0
	for _, ht := range h.hosts {
		if ht.tenant != tenant {
			continue
		}
		t.Produced += ht.produced
		t.Shed += ht.shed
		t.Backlog += ht.backlog
	}
	h.reg.Gauge("fleet.tenant.produced." + tenant).Set(int64(t.Produced))
	h.reg.Gauge("fleet.tenant.shed." + tenant).Set(int64(t.Shed))
	h.reg.Gauge("fleet.tenant.backlog." + tenant).Set(int64(t.Backlog))
}

// State snapshots the hub: streams sorted by key, tenant accounting,
// and (recomputing lazily) cross-host correlations.
func (h *Hub) State() State {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.corrOK {
		h.corr = correlateLocked(h.streams)
		h.corrOK = true
		h.reg.Gauge("fleet.hub.correlations").Set(int64(len(h.corr)))
	}
	s := State{
		Streams: make([]StreamState, 0, len(h.streams)),
		Updates: h.updates,
		Deduped: h.deduped,
		Stale:   h.stale,
		Finals:  h.finals,
	}
	for _, st := range h.streams {
		s.Streams = append(s.Streams, *st)
		if st.Detected {
			s.DetectedStreams++
		}
	}
	sort.Slice(s.Streams, func(i, j int) bool {
		return keyLess(s.Streams[i].Key, s.Streams[j].Key)
	})
	if len(h.tenants) > 0 {
		s.Tenants = make(map[string]TenantStats, len(h.tenants))
		for name, t := range h.tenants {
			s.Tenants[name] = *t
		}
	}
	s.Correlations = append([]Correlation(nil), h.corr...)
	return s
}

// refreshCorrelations forces the lazy correlation pass now (Run calls
// it once at shutdown so a final snapshot is complete even if nobody
// polls State afterwards).
func (h *Hub) refreshCorrelations() {
	h.State()
}

// Handler serves the fleet state as indented JSON — the hub's half of
// the daemon's HTTP surface (the obs registry handler is the other).
func (h *Hub) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h.State())
	})
}

// fingerprint hashes a report's verdict-bearing fields. Two reports
// with equal fingerprints render the same operator-facing verdict, so
// the hub treats the later one as a repeat. Metrics snapshots and
// retention diagnostics are deliberately excluded — they churn every
// quantum without changing what an operator would act on.
func fingerprint(r core.Report) uint64 {
	fh := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		fh.Write(buf[:])
	}
	wb := func(b bool) {
		if b {
			w(1)
		} else {
			w(0)
		}
	}
	wb(r.Detected)
	w(math.Float64bits(r.Confidence))
	fh.Write([]byte(r.Failure))
	for _, c := range r.Contention {
		w(uint64(c.Kind))
		wb(c.Analysis.Detected)
		w(math.Float64bits(c.Analysis.LikelihoodRatio))
		w(uint64(c.Analysis.ThresholdDensity))
		w(uint64(c.Analysis.BurstQuanta))
		w(math.Float64bits(c.Degradation.Confidence))
	}
	if o := r.Oscillation; o != nil {
		wb(o.Detected)
		w(uint64(o.DetectedWindows))
		w(uint64(o.Best.FundamentalLag))
		w(math.Float64bits(o.Best.PeakValue))
		w(math.Float64bits(o.Degradation.Confidence))
	}
	if s := r.Streaming; s != nil {
		w(s.EventsShed)
		for _, on := range s.Onsets {
			wb(on.Detected)
			w(on.OnsetCycle)
		}
	}
	return fh.Sum64()
}
