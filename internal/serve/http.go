package serve

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"time"

	"tsgraph/internal/gofs"
	"tsgraph/internal/obs"
	"tsgraph/internal/obs/live"
)

// errorBody is the JSON error envelope of non-200 responses.
type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// WatermarkHeader names the response header carrying the dataset
// watermark: on /query the prefix the answer was computed over, on errors
// the current head. POST /ingest responses (internal/ingest) carry the
// same header with the post-append watermark.
const WatermarkHeader = "X-Tsserve-Watermark"

// Stats is the /stats snapshot.
type Stats struct {
	Timesteps int `json:"timesteps"`
	// Watermark mirrors Timesteps under the name the ingest tier uses:
	// every timestep below it is durably published and queryable.
	Watermark      int                   `json:"watermark"`
	Vertices       int                   `json:"vertices"`
	Draining       bool                  `json:"draining"`
	QueueDepth     map[string]int        `json:"queue_depth"`
	Answered       map[string]int64      `json:"answered"`
	Rejected       map[string]int64      `json:"rejected"`
	Sweeps         map[string]int64      `json:"sweeps"`
	Batches        int64                 `json:"batches"`
	BatchedQueries int64                 `json:"batched_queries"`
	ResultHits     int64                 `json:"result_cache_hits"`
	ResultMisses   int64                 `json:"result_cache_misses"`
	LatencyMS      map[string][3]float64 `json:"latency_ms"` // class -> [p50 p95 p99]
	// SampleVertices are valid vertex IDs (up to 64) so load generators can
	// build well-formed queries without knowing the dataset.
	SampleVertices []int64 `json:"sample_vertices"`
	// InstanceCache mirrors the gofs instance-cache counters when the
	// server was wired with Options.InstanceStats.
	InstanceCache *InstanceCacheStats `json:"instance_cache,omitempty"`
}

// InstanceCacheStats is the /stats view of gofs.CacheStats: pack-cache
// effectiveness, the byte accounting of the decoded working set, and how
// many timesteps were materialized from snapshots versus delta patches.
type InstanceCacheStats struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Evictions     uint64  `json:"evictions"`
	PackLoads     uint64  `json:"pack_loads"`
	ResidentPacks int     `json:"resident_packs"`
	ResidentBytes int64   `json:"resident_bytes"`
	LimitBytes    int64   `json:"limit_bytes"` // 0 in pack-count mode
	SnapshotSteps uint64  `json:"snapshot_steps"`
	DeltaSteps    uint64  `json:"delta_steps"`
	DecodeMS      float64 `json:"decode_ms"`
	// ByClass attributes pack-cache hits/misses to the query class whose
	// sweep issued the load (present when the server was wired with
	// Options.ClassSource).
	ByClass map[string]gofs.ClassCacheStats `json:"by_class,omitempty"`
}

// NewMux wires the server's HTTP API: POST /query, GET /healthz, GET
// /stats, GET /debug/flight (the flight recorder), plus the registry's
// observability endpoints (/metrics, /metrics.json, /debug/...) when reg
// is non-nil. Extra endpoints (e.g. diag.Endpoints' /debug/bundle) join
// the same obs debug handler tsrun/tsbench's -obs server builds, so every
// daemon exposes one consistent endpoint set.
func NewMux(s *Server, reg *obs.Registry, extras ...obs.Endpoint) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	flight := obs.Endpoint{
		Pattern: "/debug/flight",
		Handler: live.Handler(s.live, s.opt.Tracer),
		Index:   "flight recorder: query summaries + retained traces, ?id= exports one",
	}
	if reg != nil {
		oh := obs.NewHandler(reg, append([]obs.Endpoint{flight}, extras...)...)
		mux.Handle("/metrics", oh)
		mux.Handle("/metrics.json", oh)
		mux.Handle("/debug/", oh)
	} else {
		mux.Handle("/debug/flight", flight.Handler)
		for _, e := range extras {
			if e.Handler != nil {
				mux.Handle(e.Pattern, e.Handler)
			}
		}
	}
	return mux
}

// queryResponse wraps the (possibly cached, shared) Answer with the
// per-request query id, so clients can quote it when pulling the trace
// from /debug/flight.
type queryResponse struct {
	*Answer
	QueryID string `json:"query_id,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only", 0)
		return
	}
	var q Query
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		s.metrics.bad.Add(1)
		writeError(w, http.StatusBadRequest, "malformed query: "+err.Error(), 0)
		return
	}
	ans, lq, err := s.SubmitTraced(r.Context(), q)
	if id := lq.IDString(); id != "" {
		w.Header().Set("X-Tsserve-Query-Id", id)
	}
	if err != nil {
		w.Header().Set(WatermarkHeader, strconv.Itoa(s.Timesteps()))
		var rej *RejectError
		code := http.StatusInternalServerError
		switch {
		case errors.As(err, &rej):
			w.Header().Set("Retry-After", retryAfterSeconds(rej.RetryAfter))
			code = http.StatusTooManyRequests
			writeError(w, code, err.Error(), rej.RetryAfter.Milliseconds())
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "1")
			code = http.StatusServiceUnavailable
			writeError(w, code, err.Error(), 0)
		case errors.Is(err, ErrBadQuery):
			code = http.StatusBadRequest
			writeError(w, code, err.Error(), 0)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// Client gone; status is moot but 499-style close beats a 500.
			code = http.StatusServiceUnavailable
			writeError(w, code, err.Error(), 0)
		default:
			writeError(w, code, err.Error(), 0)
		}
		lq.Finish(StatusOf(err), err)
		s.logRequest(lq, code, err)
		return
	}
	encStart := time.Now()
	// Pre-canonicalized direct assignment with a value cached across
	// requests: this runs on the alloc-guarded cache-hit path.
	w.Header()[WatermarkHeader] = s.watermarkHeaderValue(ans.Watermark)
	w.Header().Set("Content-Type", "application/json")
	encErr := json.NewEncoder(w).Encode(queryResponse{Answer: ans, QueryID: lq.IDString()})
	lq.Stage(live.StageEncode, encStart, time.Since(encStart))
	if encErr != nil {
		// Too late for a status change; the client sees a truncated body.
		lq.Finish(live.StatusCanceled, encErr)
		s.logRequest(lq, http.StatusOK, encErr)
		return
	}
	lq.Finish(live.StatusOK, nil)
	s.logRequest(lq, http.StatusOK, nil)
}

// logRequest emits the per-request structured log line: query id, class,
// latency, and status on every record. Successes log at debug (turn them
// on with -log-level debug); failures at warn.
func (s *Server) logRequest(lq *live.Query, code int, err error) {
	if lq == nil {
		return
	}
	level := slog.LevelDebug
	if err != nil {
		level = slog.LevelWarn
	}
	l := slog.Default()
	if !l.Enabled(context.Background(), level) {
		return
	}
	attrs := []any{
		"query", lq.IDString(),
		"class", lq.ClassName(),
		"status", code,
		"latency_ms", float64(time.Since(lq.Start())) / float64(time.Millisecond),
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	l.Log(context.Background(), level, "query", attrs...)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	st := Stats{
		Timesteps:      s.Timesteps(),
		Watermark:      s.Timesteps(),
		Vertices:       s.opt.Template.NumVertices(),
		Draining:       s.Draining(),
		QueueDepth:     make(map[string]int, numClasses),
		Answered:       make(map[string]int64, numClasses),
		Rejected:       make(map[string]int64, numClasses),
		Sweeps:         make(map[string]int64, numClasses),
		Batches:        m.Batches(),
		BatchedQueries: m.BatchedQueries(),
		LatencyMS:      make(map[string][3]float64, numClasses),
	}
	if s.opt.InstanceStats != nil {
		cs := s.opt.InstanceStats()
		st.InstanceCache = &InstanceCacheStats{
			Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
			PackLoads:     cs.PackLoads,
			ResidentPacks: cs.Resident, ResidentBytes: cs.BytesResident,
			LimitBytes:    cs.BytesLimit,
			SnapshotSteps: cs.SnapshotSteps, DeltaSteps: cs.DeltaSteps,
			DecodeMS: float64(cs.DecodeTime) / float64(time.Millisecond),
			ByClass:  cs.ByClass,
		}
	}
	for c := Class(0); c < numClasses; c++ {
		st.QueueDepth[c.String()] = s.queues[c].depth()
		st.Answered[c.String()] = m.Answered(c)
		st.Rejected[c.String()] = m.Rejected(c)
		st.Sweeps[c.String()] = m.Sweeps(c)
		st.ResultHits += m.ResultHits(c)
		st.ResultMisses += m.ResultMisses(c)
		// Histogram-estimated total-latency quantiles (stage 2 = total).
		st.LatencyMS[c.String()] = [3]float64{
			float64(s.live.Quantile(int(c), 2, 0.50)) / float64(time.Millisecond),
			float64(s.live.Quantile(int(c), 2, 0.95)) / float64(time.Millisecond),
			float64(s.live.Quantile(int(c), 2, 0.99)) / float64(time.Millisecond),
		}
	}
	t := s.opt.Template
	n := t.NumVertices()
	stride := n / 64
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < n && len(st.SampleVertices) < 64; i += stride {
		st.SampleVertices = append(st.SampleVertices, int64(t.VertexID(i)))
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

func writeError(w http.ResponseWriter, status int, msg string, retryMS int64) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: msg, RetryAfterMS: retryMS})
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 so clients actually back off.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
