package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"tsgraph/internal/subgraph"
)

// TraceShard is one rank's contribution to a cluster-wide trace: its spans
// and superstep stats, its tracer epoch, and the rank's estimated clock
// offset relative to the merge reference (rank 0). Shards travel over the
// cluster wire (gob) or the /debug/trace.shard endpoint (JSON), so all
// fields are plain data.
type TraceShard struct {
	Rank int `json:"rank"`
	// EpochUnixNano is the shard tracer's epoch on the rank's own clock.
	EpochUnixNano int64 `json:"epoch_unix_nano"`
	// OffsetNanos is the estimated clock offset of this rank relative to
	// the reference rank: local clock minus reference clock. Subtracting it
	// from a local timestamp converts it onto the reference timeline.
	OffsetNanos int64      `json:"offset_nanos"`
	Spans       []Span     `json:"spans"`
	Stats       []StepStat `json:"stats"`
}

// MergedSpan is one span of a merged cluster trace: the original span plus
// its owning rank, with Start re-based onto the shared aligned timeline
// (nanoseconds since the merged epoch, always >= 0).
type MergedSpan struct {
	Rank int
	Span
}

// MergedTrace is the clock-aligned union of several ranks' trace shards.
type MergedTrace struct {
	// Ranks lists the contributing ranks in ascending order.
	Ranks []int
	// Spans holds every shard's spans on the aligned timeline, sorted by
	// Start (monotonic by construction).
	Spans []MergedSpan
	// Stats holds every shard's superstep stats tagged with their rank,
	// ordered by (rank, record order).
	Stats []RankStepStat
	// EpochUnixNano is the merged timeline's origin on the reference
	// rank's clock.
	EpochUnixNano int64
}

// RankStepStat is a StepStat tagged with the rank that recorded it.
type RankStepStat struct {
	Rank int
	StepStat
}

// MergeTraces aligns per-rank trace shards onto one timeline: each shard's
// timestamps are shifted by its epoch and estimated clock offset, the
// earliest aligned instant becomes the merged epoch, and all spans are
// sorted so the result is monotonic. Shards may arrive in any order; an
// empty input yields an empty trace.
func MergeTraces(shards []TraceShard) *MergedTrace {
	m := &MergedTrace{}
	if len(shards) == 0 {
		return m
	}
	ordered := append([]TraceShard(nil), shards...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Rank < ordered[j].Rank })

	// A shard's span at local epoch-relative time s sits at
	// Epoch + s - Offset on the reference clock.
	base := func(sh *TraceShard) int64 { return sh.EpochUnixNano - sh.OffsetNanos }
	epoch := int64(0)
	first := true
	for i := range ordered {
		sh := &ordered[i]
		for _, sp := range sh.Spans {
			if at := base(sh) + sp.Start; first || at < epoch {
				epoch, first = at, false
			}
		}
	}
	m.EpochUnixNano = epoch

	for i := range ordered {
		sh := &ordered[i]
		m.Ranks = append(m.Ranks, sh.Rank)
		for _, sp := range sh.Spans {
			sp.Start = base(sh) + sp.Start - epoch
			if sp.Start < 0 {
				sp.Start = 0 // clamp sub-epoch jitter from offset estimation
			}
			m.Spans = append(m.Spans, MergedSpan{Rank: sh.Rank, Span: sp})
		}
		for _, st := range sh.Stats {
			m.Stats = append(m.Stats, RankStepStat{Rank: sh.Rank, StepStat: st})
		}
	}
	sort.SliceStable(m.Spans, func(i, j int) bool { return m.Spans[i].Start < m.Spans[j].Start })
	return m
}

// Validate checks the structural invariants a merged cluster trace must
// satisfy: every rank contributed at least one span, aligned timestamps are
// non-negative and monotonic, and every wire-recv span resolves to the
// matching wire-send span recorded by its sender. It returns nil when all
// hold, else an error naming the first violation.
func (m *MergedTrace) Validate() error {
	if len(m.Ranks) == 0 {
		return fmt.Errorf("obs: merged trace has no ranks")
	}
	spansByRank := map[int]int{}
	sends := map[int64]int{} // packed wire id -> sender rank
	prev := int64(-1)
	for _, sp := range m.Spans {
		if sp.Start < 0 {
			return fmt.Errorf("obs: rank %d %s span at negative aligned time %d", sp.Rank, sp.Kind, sp.Start)
		}
		if sp.Start < prev {
			return fmt.Errorf("obs: merged trace not monotonic at rank %d %s span (%d < %d)", sp.Rank, sp.Kind, sp.Start, prev)
		}
		prev = sp.Start
		spansByRank[sp.Rank]++
		if sp.Kind == SpanWireSend {
			sends[sp.SID] = sp.Rank
		}
	}
	for _, r := range m.Ranks {
		if spansByRank[r] == 0 {
			return fmt.Errorf("obs: rank %d contributed no spans", r)
		}
	}
	for _, sp := range m.Spans {
		if sp.Kind != SpanWireRecv {
			continue
		}
		sender, seq := UnpackWireID(sp.SID)
		from, ok := sends[sp.SID]
		if !ok {
			return fmt.Errorf("obs: rank %d wire-recv (sender %d, seq %d) has no matching wire-send span", sp.Rank, sender, seq)
		}
		if from != sender {
			return fmt.Errorf("obs: wire id (sender %d, seq %d) recorded by rank %d", sender, seq, from)
		}
	}
	return nil
}

// WriteChromeTrace renders a merged cluster trace in the Chrome trace_event
// JSON format with one process row per (rank, partition) and one per rank's
// driver, so an N-rank run shows N aligned swim-lane groups in Perfetto.
// Stall warnings become global instant events; wire spans carry peer and
// sequence args so sender/receiver pairs are inspectable.
func (m *MergedTrace) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}

	// pid layout: rank r's driver is r*pidStride, its partition p is
	// r*pidStride + 1 + p. Ranks therefore occupy disjoint pid blocks and
	// render as distinct process rows.
	const pidStride = 1 << 16
	type procKey struct{ rank, pid int32 }
	seen := map[procKey]bool{}
	for _, r := range m.Ranks {
		emit(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"rank %d driver"}}`, r*pidStride, r)
		emit(`{"ph":"M","pid":%d,"tid":0,"name":"thread_name","args":{"name":"timesteps"}}`, r*pidStride)
		seen[procKey{int32(r), int32(r * pidStride)}] = true
	}
	for _, sp := range m.Spans {
		if sp.Part < 0 || sp.Kind == SpanWireSend || sp.Kind == SpanWireRecv || sp.Kind == SpanStall {
			continue
		}
		pid := int32(sp.Rank*pidStride) + 1 + sp.Part
		k := procKey{int32(sp.Rank), pid}
		if !seen[k] {
			seen[k] = true
			emit(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"rank %d partition %d"}}`, pid, sp.Rank, sp.Part)
			emit(`{"ph":"M","pid":%d,"tid":0,"name":"thread_name","args":{"name":"supersteps"}}`, pid)
		}
	}

	for _, sp := range m.Spans {
		driverPID := int32(sp.Rank * pidStride)
		pid, tid := driverPID, int32(0)
		name := sp.Kind.String()
		switch sp.Kind {
		case SpanTimestep:
			name = fmt.Sprintf("timestep %d", sp.TS)
		case SpanLoad:
			name = fmt.Sprintf("load %d", sp.TS)
		case SpanExchange:
			name = fmt.Sprintf("exchange %d", sp.TS)
		case SpanComputePhase, SpanFlush, SpanBarrier:
			pid = driverPID + 1 + sp.Part
		case SpanCompute:
			pid = driverPID + 1 + sp.Part
			sid := subgraph.ID(sp.SID)
			tid = int32(1 + sid.Index())
			name = fmt.Sprintf("compute %s", sid)
		case SpanStall:
			emit(`{"ph":"i","s":"g","name":"stall: party %d","cat":"stall","pid":%d,"tid":0,"ts":%.3f,"args":{"timestep":%d,"superstep":%d,"waited_ms":%.3f}}`,
				sp.Part, driverPID, float64(sp.Start+sp.Dur)/1e3, sp.TS, sp.Step, float64(sp.Dur)/1e6)
			continue
		case SpanWireSend, SpanWireRecv:
			sender, seq := UnpackWireID(sp.SID)
			emit(`{"ph":"X","name":%q,"cat":%q,"pid":%d,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"timestep":%d,"superstep":%d,"peer":%d,"sender":%d,"seq":%d}}`,
				fmt.Sprintf("%s peer %d", sp.Kind, sp.Part), sp.Kind.String(), driverPID,
				float64(sp.Start)/1e3, float64(sp.Dur)/1e3, sp.TS, sp.Step, sp.Part, sender, seq)
			continue
		}
		emit(`{"ph":"X","name":%q,"cat":%q,"pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"timestep":%d,"superstep":%d,"rank":%d}}`,
			name, sp.Kind.String(), pid, tid,
			float64(sp.Start)/1e3, float64(sp.Dur)/1e3, sp.TS, sp.Step, sp.Rank)
	}

	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// RankSkew is one rank's share of a cluster skew decomposition.
type RankSkew struct {
	Rank int
	// Compute is the rank's total simulated compute time (sum over its
	// partitions and supersteps); Makespan sums the rank's per-superstep
	// critical path (max partition compute+flush).
	Compute, Makespan time.Duration
	// InterWait is how long the rank idled at global barriers behind
	// slower ranks, summed over supersteps.
	InterWait time.Duration
}

// ClusterSkewReport splits a multi-rank run's imbalance into the two layers
// the paper's §IV utilization plots distinguish: intra-partition compute
// skew (stragglers among partitions of the same rank, fixable by
// re-partitioning within a host) and inter-rank barrier wait (whole hosts
// idling behind the cluster's slowest rank, fixable only by re-balancing
// partition ownership).
type ClusterSkewReport struct {
	Ranks, Supersteps int
	// IntraRatio is the compute-weighted max/median partition-compute
	// ratio within ranks: Sigma(max partition compute per rank-superstep) /
	// Sigma(median). 1.0 means every rank's partitions are balanced.
	IntraRatio float64
	// InterRatio is the same statistic across ranks, over per-rank
	// superstep makespans: how much the slowest host dominates the median
	// host.
	InterRatio float64
	// IntraExcess sums (max - median) partition compute within ranks: the
	// schedule time attributable to intra-rank stragglers. InterWait sums
	// every rank's idle time behind the per-superstep slowest rank.
	IntraExcess, InterWait time.Duration
	PerRank                []RankSkew
}

// String renders the cluster report for CLI output.
func (c *ClusterSkewReport) String() string {
	return fmt.Sprintf("cluster skew: %d ranks, %d supersteps, intra-partition %.2fx (+%v), inter-rank %.2fx (%v barrier wait)",
		c.Ranks, c.Supersteps, c.IntraRatio, c.IntraExcess.Round(time.Microsecond),
		c.InterRatio, c.InterWait.Round(time.Microsecond))
}

// ClusterSkew aggregates a merged trace's superstep stats into the
// two-layer skew decomposition. Degenerate inputs (no stats, one rank, one
// partition per rank) yield a report with ratio 1 components where the
// corresponding layer has no spread.
func (m *MergedTrace) ClusterSkew() *ClusterSkewReport {
	rep := &ClusterSkewReport{Ranks: len(m.Ranks)}
	if len(m.Stats) == 0 {
		return rep
	}
	type stepKey struct {
		rank     int
		ts, step int32
	}
	type globalKey struct{ ts, step int32 }
	perRankStep := map[stepKey][]int64{} // partition compute samples
	rankSpan := map[stepKey]int64{}      // rank superstep makespan (compute+flush critical path)
	globalSteps := map[globalKey][]int{} // ranks seen per global superstep
	byRank := map[int]*RankSkew{}
	for _, r := range m.Ranks {
		byRank[r] = &RankSkew{Rank: r}
	}
	for _, st := range m.Stats {
		k := stepKey{st.Rank, st.TS, st.Step}
		perRankStep[k] = append(perRankStep[k], st.Compute)
		if span := st.Compute + st.Flush; span > rankSpan[k] {
			rankSpan[k] = span
		}
		if rs := byRank[st.Rank]; rs != nil {
			rs.Compute += time.Duration(st.Compute)
		}
	}

	var intraMaxSum, intraMedSum int64
	for k, computes := range perRankStep {
		sort.Slice(computes, func(i, j int) bool { return computes[i] < computes[j] })
		med, max := computes[len(computes)/2], computes[len(computes)-1]
		intraMaxSum += max
		intraMedSum += med
		rep.IntraExcess += time.Duration(max - med)
		gk := globalKey{k.ts, k.step}
		globalSteps[gk] = append(globalSteps[gk], k.rank)
		if rs := byRank[k.rank]; rs != nil {
			rs.Makespan += time.Duration(rankSpan[k])
		}
	}
	rep.IntraRatio = ratioOrUnit(intraMaxSum, intraMedSum)

	var interMaxSum, interMedSum int64
	for gk, ranks := range globalSteps {
		spans := make([]int64, 0, len(ranks))
		for _, r := range ranks {
			spans = append(spans, rankSpan[stepKey{r, gk.ts, gk.step}])
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i] < spans[j] })
		med, max := spans[len(spans)/2], spans[len(spans)-1]
		interMaxSum += max
		interMedSum += med
		for _, r := range ranks {
			wait := time.Duration(max - rankSpan[stepKey{r, gk.ts, gk.step}])
			rep.InterWait += wait
			if rs := byRank[r]; rs != nil {
				rs.InterWait += wait
			}
		}
	}
	rep.InterRatio = ratioOrUnit(interMaxSum, interMedSum)
	rep.Supersteps = len(globalSteps)
	for _, r := range m.Ranks {
		rep.PerRank = append(rep.PerRank, *byRank[r])
	}
	return rep
}

// ratioOrUnit returns max/med, or 1 when there is no spread to measure
// (an all-zero window divides by zero otherwise).
func ratioOrUnit(max, med int64) float64 {
	if med > 0 {
		return float64(max) / float64(med)
	}
	if max > 0 {
		return float64(max) // effectively infinite spread; report the mass
	}
	return 1
}

// ShardCollector exports a gathered cluster trace as /metrics samples, so
// the merging rank's scrape carries the cluster-wide view: per-rank span
// counts and clock offsets from every shard, not just the local process.
type ShardCollector struct {
	Shards []TraceShard
}

// CollectObs implements Collector.
func (c ShardCollector) CollectObs(emit func(Sample)) {
	for _, sh := range c.Shards {
		labels := []Label{{Key: "rank", Value: strconv.Itoa(sh.Rank)}}
		emit(Sample{Name: "tsgraph_cluster_spans_total", Help: "Trace spans gathered from each rank's shard.", Kind: "counter", Labels: labels, Value: float64(len(sh.Spans))})
		emit(Sample{Name: "tsgraph_cluster_clock_offset_seconds", Help: "Estimated clock offset of each rank relative to the merge reference.", Kind: "gauge", Labels: labels, Value: time.Duration(sh.OffsetNanos).Seconds()})
	}
}
