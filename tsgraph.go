// Package tsgraph is a distributed programming framework for time-series
// graphs — graphs whose topology changes slowly but whose vertex and edge
// attribute values change at every timestep. It is a from-scratch Go
// implementation of the system described in "Distributed Programming over
// Time-series Graphs" (Simmhan et al., IPPS 2015): the time-series graph
// data model, the Temporally Iterative BSP (TI-BSP) programming abstraction
// with its three design patterns, the GoFFish-style subgraph-centric BSP
// runtime, the GoFS slice-file storage layer, a METIS-style multilevel
// partitioner, and the paper's three algorithms (Time-Dependent Shortest
// Path, Meme Tracking, Hashtag Aggregation).
//
// # Data model
//
// A time-series graph collection Γ = ⟨Ĝ, G, t0, δ⟩ is a Template (the time
// invariant topology plus attribute schemas) and an ordered series of
// Instances holding the attribute values at t0, t0+δ, t0+2δ, ….
// Build templates with NewBuilder, attach instances via NewCollection /
// NewInstance, or generate synthetic datasets with the gen helpers
// (RoadNetwork, SmallWorld, RandomLatencies, SIRTweets).
//
// # Programming model
//
// Applications implement Program: a Compute method invoked per subgraph,
// per timestep, per superstep, exactly as in §II-D of the paper:
//
//	Compute(ctx, sg, timestep, superstep, msgs)
//	EndOfTimestep(ctx, sg, timestep)          // optional
//	Merge(ctx, sg, superstep, msgs)           // eventually dependent only
//
// The Context provides the paper's messaging primitives: SendTo (within a
// BSP), SendToNextTimestep / SendToSubgraphInNextTimestep (along temporal
// edges), SendMessageToMerge, VoteToHalt and VoteToHaltTimestep. Run a
// program with Run over a Job that selects one of the three design
// patterns: SequentiallyDependent, Independent or EventuallyDependent.
//
// # Quick start
//
// See examples/quickstart for a complete program; the short version:
//
//	tmpl := ...                                  // build or generate a Template
//	coll := ...                                  // its instances
//	assign, _ := tsgraph.PartitionMultilevel(tmpl, 4, 0)
//	parts, _ := tsgraph.BuildSubgraphs(tmpl, assign)
//	res, _ := tsgraph.Run(&tsgraph.Job{
//	    Template: tmpl, Parts: parts,
//	    Source:  tsgraph.MemorySource{C: coll},
//	    Program: myProgram, Pattern: tsgraph.SequentiallyDependent,
//	})
package tsgraph

import (
	"io"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/bsp"
	"tsgraph/internal/core"
	"tsgraph/internal/gen"
	"tsgraph/internal/gofs"
	"tsgraph/internal/graph"
	"tsgraph/internal/metrics"
	"tsgraph/internal/partition"
	"tsgraph/internal/subgraph"
)

// Data model types.
type (
	// Template is the time-invariant topology and attribute schemas.
	Template = graph.Template
	// Builder incrementally assembles a Template.
	Builder = graph.Builder
	// Schema is an ordered set of named, typed attributes.
	Schema = graph.Schema
	// AttrType enumerates attribute value types.
	AttrType = graph.AttrType
	// VertexID is an application-assigned vertex identifier.
	VertexID = graph.VertexID
	// EdgeID is an application-assigned edge identifier.
	EdgeID = graph.EdgeID
	// Instance is one timestamped snapshot of attribute values.
	Instance = graph.Instance
	// Collection is a time-series graph Γ = ⟨Ĝ, G, t0, δ⟩.
	Collection = graph.Collection
	// Stats summarizes a template's structure.
	Stats = graph.Stats
)

// Attribute type constants.
const (
	TInt        = graph.TInt
	TFloat      = graph.TFloat
	TString     = graph.TString
	TStringList = graph.TStringList
	TBool       = graph.TBool
)

// NewBuilder creates a template builder; nil schemas mean no attributes.
func NewBuilder(name string, vattrs, eattrs *Schema) *Builder {
	return graph.NewBuilder(name, vattrs, eattrs)
}

// NewSchema builds an attribute schema from parallel name/type lists.
func NewSchema(names []string, types []AttrType) (*Schema, error) {
	return graph.NewSchema(names, types)
}

// NewCollection creates an empty time-series collection over a template.
func NewCollection(t *Template, t0, delta int64) *Collection {
	return graph.NewCollection(t, t0, delta)
}

// NewInstance allocates a zeroed instance matching the template's schemas.
func NewInstance(t *Template, timestep int, time int64) *Instance {
	return graph.NewInstance(t, timestep, time)
}

// ComputeStats derives structural statistics (including a double-sweep
// diameter estimate) for a template.
func ComputeStats(t *Template, sweeps int) Stats { return graph.ComputeStats(t, sweeps) }

// Partitioning.
type (
	// Assignment maps each vertex to one of K partitions (hosts).
	Assignment = partition.Assignment
	// Partitioner is a vertex-partitioning strategy.
	Partitioner = partition.Partitioner
)

// PartitionMultilevel partitions a template over k hosts with the
// METIS-style multilevel k-way partitioner (the paper's configuration:
// balanced vertex counts within a 1.03 load factor, minimized edge cut).
func PartitionMultilevel(t *Template, k int, seed int64) (*Assignment, error) {
	return partition.Multilevel{Seed: seed}.Partition(t, k)
}

// PartitionHash partitions by vertex index modulo k (ablation baseline).
func PartitionHash(t *Template, k int) (*Assignment, error) {
	return partition.Hash{}.Partition(t, k)
}

// Subgraph discovery.
type (
	// SubgraphID identifies a subgraph as (partition, index).
	SubgraphID = subgraph.ID
	// Subgraph is a maximal weakly connected component within a partition
	// — the unit Compute runs on.
	Subgraph = subgraph.Subgraph
	// PartitionData is one partition's local topology view.
	PartitionData = subgraph.PartitionData
)

// BuildSubgraphs derives every partition's local view and subgraphs from a
// template and an assignment, resolving remote edges.
func BuildSubgraphs(t *Template, a *Assignment) ([]*PartitionData, error) {
	return subgraph.Build(t, a)
}

// TI-BSP programming model.
type (
	// Program is TI-BSP user logic (Compute per subgraph/timestep/superstep).
	Program = core.Program
	// Merger adds the Merge phase of the eventually dependent pattern.
	Merger = core.Merger
	// Context is passed to Compute.
	Context = core.Context
	// EndContext is passed to EndOfTimestep.
	EndContext = core.EndContext
	// MergeContext is passed to Merge.
	MergeContext = core.MergeContext
	// Pattern selects a design pattern.
	Pattern = core.Pattern
	// Job describes a TI-BSP run.
	Job = core.Job
	// Result carries a completed run's outputs.
	Result = core.Result
	// Output is one emitted application record.
	Output = core.Output
	// Message is a unit of inter-subgraph communication.
	Message = bsp.Message
	// EngineConfig tunes the BSP engine (cores per host, superstep bound,
	// modeled superstep latency).
	EngineConfig = bsp.Config
	// InstanceSource supplies instances by timestep (in-memory or GoFS).
	InstanceSource = core.InstanceSource
	// MemorySource adapts an in-memory Collection to InstanceSource.
	MemorySource = core.MemorySource
	// Recorder accumulates per-timestep metrics.
	Recorder = metrics.Recorder
)

// Design patterns (§II-B of the paper).
const (
	SequentiallyDependent = core.SequentiallyDependent
	Independent           = core.Independent
	EventuallyDependent   = core.EventuallyDependent
)

// Run executes a TI-BSP job to completion.
func Run(job *Job) (*Result, error) { return core.Run(job) }

// NewRecorder creates a metrics recorder for k partitions.
func NewRecorder(k int) *Recorder { return metrics.NewRecorder(k) }

// GoFS storage.
type (
	// Store is an opened GoFS dataset.
	Store = gofs.Store
	// Loader incrementally materializes instances from slice files.
	Loader = gofs.Loader
)

// WriteDataset persists a collection as a GoFS dataset with the given
// temporal packing and subgraph binning (0 = the paper's defaults, 10 & 5).
func WriteDataset(dir string, c *Collection, a *Assignment, pack, bin int) error {
	return gofs.WriteDataset(dir, c, a, pack, bin)
}

// OpenDataset opens a GoFS dataset directory.
func OpenDataset(dir string) (*Store, error) { return gofs.Open(dir) }

// NewLoader creates a lazy instance loader over an open store; it satisfies
// InstanceSource.
func NewLoader(s *Store) *Loader { return gofs.NewLoader(s) }

// Synthetic dataset generators (the paper's §IV-A data model).
type (
	// RoadConfig parameterizes RoadNetwork.
	RoadConfig = gen.RoadConfig
	// SmallWorldConfig parameterizes SmallWorld.
	SmallWorldConfig = gen.SmallWorldConfig
	// LatencyConfig parameterizes RandomLatencies.
	LatencyConfig = gen.LatencyConfig
	// SIRConfig parameterizes SIRTweets.
	SIRConfig = gen.SIRConfig
	// SIRResult carries the generated tweets plus ground truth.
	SIRResult = gen.SIRResult
)

// Standard generated attribute names.
const (
	AttrTweets  = gen.AttrTweets
	AttrLatency = gen.AttrLatency
	AttrLoad    = gen.AttrLoad
)

// RoadNetwork generates a large-diameter, small-degree road-like template.
func RoadNetwork(cfg RoadConfig) *Template { return gen.RoadNetwork(cfg) }

// SmallWorld generates a power-law, tiny-diameter template.
func SmallWorld(cfg SmallWorldConfig) *Template { return gen.SmallWorld(cfg) }

// RandomLatencies builds instances with uncorrelated random edge latencies.
func RandomLatencies(t *Template, cfg LatencyConfig) (*Collection, error) {
	return gen.RandomLatencies(t, cfg)
}

// SIRTweets builds instances whose vertex tweets carry memes propagated by
// an SIR epidemic process.
func SIRTweets(t *Template, cfg SIRConfig) (*SIRResult, error) {
	return gen.SIRTweets(t, cfg)
}

// Algorithms (§III of the paper).
type (
	// TDSPResult is one finalized time-dependent shortest path.
	TDSPResult = algorithms.TDSPResult
	// MemeResult is one first-colored vertex of a tracked meme.
	MemeResult = algorithms.MemeResult
	// HashtagStats is the merged hashtag aggregation output.
	HashtagStats = algorithms.HashtagStats
)

// TDSP computes time-dependent shortest paths from src over every instance
// (stopping early once all vertices are finalized) and returns
// template-indexed earliest arrival times (+Inf when unreached).
func TDSP(t *Template, parts []*PartitionData, src int, source InstanceSource, delta float64, weightAttr string, cfg EngineConfig, rec *Recorder) ([]float64, *Result, error) {
	return algorithms.RunTDSP(t, parts, src, source, delta, weightAttr, cfg, rec)
}

// TrackMeme runs the sequentially dependent meme-tracking temporal BFS and
// returns, per vertex, the first timestep it was colored (-1 if never).
func TrackMeme(t *Template, parts []*PartitionData, meme, tweetsAttr string, source InstanceSource, cfg EngineConfig, rec *Recorder) ([]int32, *Result, error) {
	return algorithms.RunMeme(t, parts, meme, tweetsAttr, source, cfg, rec)
}

// AggregateHashtag runs the eventually dependent hashtag aggregation and
// returns per-timestep counts plus summary statistics.
func AggregateHashtag(t *Template, parts []*PartitionData, hashtag, tweetsAttr string, source InstanceSource, cfg EngineConfig, rec *Recorder, temporalParallelism int) (*HashtagStats, *Result, error) {
	return algorithms.RunHashtag(t, parts, hashtag, tweetsAttr, source, cfg, rec, temporalParallelism)
}

// SSSP runs single-instance subgraph-centric single-source shortest path
// (empty weightAttr = unweighted BFS).
func SSSP(t *Template, parts []*PartitionData, src int, source InstanceSource, timestep int, weightAttr string, cfg EngineConfig) ([]float64, *Result, error) {
	return algorithms.RunSSSP(t, parts, src, source, timestep, weightAttr, cfg)
}

// VertexValue pairs a vertex with an attribute value for ranking.
type VertexValue = algorithms.VertexValue

// TopN ranks vertices by a float vertex attribute independently per
// timestep (the paper's independent design pattern) and returns the global
// top-N per timestep; temporalParallelism > 1 processes instances
// concurrently.
func TopN(t *Template, parts []*PartitionData, attr string, n int, source InstanceSource, cfg EngineConfig, rec *Recorder, temporalParallelism int) ([][]VertexValue, *Result, error) {
	return algorithms.RunTopN(t, parts, attr, n, source, cfg, rec, temporalParallelism)
}

// RandomLoads fills the vertex "load" attribute of a collection with
// uniform random values (for ranking/aggregation workloads).
func RandomLoads(c *Collection, seed int64, min, max float64) error {
	return gen.RandomLoads(c, seed, min, max)
}

// EdgeListOptions controls SNAP edge-list parsing.
type EdgeListOptions = graph.EdgeListOptions

// ReadEdgeList parses a SNAP-style "src dst" edge list (e.g. roadNet-CA,
// wiki-Talk) into a Template.
func ReadEdgeList(r io.Reader, opts EdgeListOptions) (*Template, error) {
	return graph.ReadEdgeList(r, opts)
}

// WriteEdgeList emits a template in SNAP edge-list form.
func WriteEdgeList(w io.Writer, t *Template) error { return graph.WriteEdgeList(w, t) }

// TDSPProgram is the Time-Dependent Shortest Path program (paper Alg 2);
// construct with NewTDSPProgram to set options (e.g. ExistsAttr for
// isExists-aware traversal) and run it with Run. The single-source program
// is a batch of one of the multi-source program the serving tier sweeps, so
// the source is Queries[0].Source (there is no Source field) and the type
// carries the batch's methods too. ExistsAttr is the only field to set
// after construction: the constructor sizes its state from Queries and
// Depart, and changing them afterwards desynchronizes it.
type TDSPProgram = algorithms.BatchTDSPProgram

// NewTDSPProgram builds a TDSP program over partitioned data; src is a
// template vertex index, delta the instance period δ.
func NewTDSPProgram(parts []*PartitionData, src int, delta float64, weightAttr string) *TDSPProgram {
	return algorithms.NewTDSP(parts, src, delta, weightAttr)
}

// StoreOptions configures GoFS dataset storage (packing, binning,
// compression).
type StoreOptions = gofs.Options

// WriteDatasetOptions is WriteDataset with explicit storage options.
func WriteDatasetOptions(dir string, c *Collection, a *Assignment, o StoreOptions) error {
	return gofs.WriteDatasetOptions(dir, c, a, o)
}
