// dv_perfbench: the end-to-end DarkVec benchmark program.
//
// One process runs one workload (pipeline, stream or sweep) in-process
// against the library, on inputs the simulator generates from --seed:
//
//   dv_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                --workdir DIR
//
// A run sets its inputs up several times (the median is setup_s), then
// repeats the workload's closed job until --seconds have elapsed and
// reports medians. With --trace 1 the repetitions alternate untraced and
// traced: the traced ones enable obs::Tracer, wrap every call this file
// makes into a layer in an obs::Span named "call.<layer>.<function>",
// and attribute each main-thread span's self time to a layer. Every
// repetition's outputs are checked; failed checks count into `failed`.
//
// The last stdout line is the result object; the line before it is a
// provenance object. perfbench/README.md documents the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "darkvec/core/darkvec.hpp"
#include "darkvec/core/inspector.hpp"
#include "darkvec/core/model_io.hpp"
#include "darkvec/core/parallel.hpp"
#include "darkvec/core/semi_supervised.hpp"
#include "darkvec/core/simd/simd.hpp"
#include "darkvec/core/streaming.hpp"
#include "darkvec/core/transfer.hpp"
#include "darkvec/graph/knn_graph.hpp"
#include "darkvec/graph/louvain.hpp"
#include "darkvec/ml/silhouette.hpp"
#include "darkvec/net/trace_binary.hpp"
#include "darkvec/net/trace_io.hpp"
#include "darkvec/obs/obs.hpp"
#include "darkvec/sim/scenario.hpp"
#include "darkvec/sim/simulator.hpp"

namespace dv = darkvec;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- workload definitions --------------------------------------------------
//
// Sizes are fixed here, not on the command line: the seed is the only
// input a run varies. See README.md for why each workload exists.

struct Workload {
  const char* name;
  int days;
  double scale;
  std::size_t min_packets;
  int epochs;
  int sgns_threads;  // DarkVecConfig::w2v.threads (sweep: of its set-up)
  int pool_threads;  // global ThreadPool size
  int setup_repeats;  // set-ups per run; setup_s is their median
};

constexpr Workload kPipeline{"pipeline", 20, 0.25, 10, 5, 4, 4, 9};
constexpr Workload kStream{"stream", 9, 0.25, 10, 3, 4, 4, 9};
constexpr Workload kSweep{"sweep", 8, 1.0, 2, 1, 1, 4, 3};

constexpr int kMinRepeats = 3;
constexpr int kEvalK = 7;
constexpr int kClusterKPrime = 3;
constexpr std::int64_t kStreamWindow = 5 * dv::net::kSecondsPerDay;
constexpr std::int64_t kStreamStep = 2 * dv::net::kSecondsPerDay;
// Floors tests/integration/pipeline_test.cpp asserts for the paper
// scenario (at 10 d x 0.25; the pipeline workload runs 20 d).
constexpr double kAccuracyFloor = 0.80;
constexpr double kModularityFloor = 0.6;
// The IVF operating-point gate of bench_micro_ann.
constexpr double kAnnRecallFloor = 0.95;
// Traced wall time the layer spans may leave uncovered: the glue between
// calls in this file.
constexpr double kMaxUnattributed = 0.05;

dv::DarkVecConfig darkvec_config(const Workload& w) {
  dv::DarkVecConfig config;
  config.corpus.min_packets = w.min_packets;
  config.w2v.epochs = w.epochs;
  config.w2v.threads = w.sgns_threads;
  return config;
}

// ---- checks ----------------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
};

// FNV-1a over raw bytes: digests of inputs and outputs that must repeat.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  template <class T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  template <class T>
  void span(std::span<const T> v) {
    bytes(v.data(), v.size_bytes());
  }
};

std::uint64_t digest_trace(const dv::net::Trace& trace) {
  Digest d;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const dv::net::Packet& p = trace[i];
    d.pod(p.ts);
    d.pod(p.src.value());
    d.pod(p.dst_host);
    d.pod(p.dst_port);
    d.pod(p.proto);
  }
  return d.h;
}

std::uint64_t digest_graph_partition(const dv::graph::WeightedGraph& g,
                                     std::span<const int> community) {
  Digest d;
  for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
    for (const dv::graph::Edge& e : g.neighbors(u)) {
      d.pod(u);
      d.pod(e.to);
      d.pod(e.weight);
    }
  }
  d.span(community);
  return d.h;
}

bool same_model(const dv::SenderModel& a, const std::vector<dv::net::IPv4>& s,
                const dv::w2v::Embedding& e) {
  return a.senders == s && a.embedding.dim() == e.dim() &&
         a.embedding.data() == e.data();
}

// Undirected edge set of a k'-NN graph, self-loops excluded.
std::set<std::pair<std::uint32_t, std::uint32_t>> edge_set(
    const dv::graph::WeightedGraph& g) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t u = 0; u < g.num_nodes(); ++u) {
    for (const dv::graph::Edge& e : g.neighbors(u)) {
      if (e.to != u) edges.emplace(std::min(u, e.to), std::max(u, e.to));
    }
  }
  return edges;
}

// Share of the exact graph's edges the IVF graph also holds.
double edge_recall(const dv::graph::WeightedGraph& exact,
                   const dv::graph::WeightedGraph& approx) {
  const auto want = edge_set(exact);
  const auto got = edge_set(approx);
  if (want.empty()) return 0;
  std::size_t hits = 0;
  for (const auto& e : want) hits += got.count(e);
  return static_cast<double>(hits) / static_cast<double>(want.size());
}

// Recall of the IVF k'-NN graph against the exact one on `embedding`,
// at the index's default nprobe.
double ivf_recall(const dv::w2v::Embedding& embedding, int k_prime) {
  const dv::ml::CosineKnn knn(embedding);
  dv::ml::AnnSearchParams ann;
  ann.enabled = true;
  return edge_recall(dv::graph::knn_graph(knn, k_prime),
                     dv::graph::knn_graph(knn, k_prime, ann));
}

// Procrustes anchor cosine between a model and its save/load round trip.
double round_trip_similarity(const dv::corpus::Corpus& corpus,
                             const dv::w2v::Embedding& original,
                             const dv::SenderModel& reloaded) {
  dv::corpus::Corpus reloaded_corpus;
  reloaded_corpus.words = reloaded.senders;
  return dv::align_embeddings(reloaded_corpus, reloaded.embedding, corpus,
                              original)
      .anchor_similarity;
}

// ---- tracing and per-layer attribution --------------------------------------

constexpr const char* kLayers[] = {"net", "corpus", "w2v", "ml",
                                   "graph", "core", "obs"};

// Layer of a span: "call.<layer>.<fn>" for this file's spans, the
// library's own span names otherwise. DarkVec::fit's self time is the
// service map and corpus build (its SGNS part is the nested w2v.train);
// DarkVec::cluster's self time is the lazy CosineKnn build, which is the
// embedding normalisation.
std::string layer_of(std::string_view name) {
  if (name.starts_with("call.")) {
    name.remove_prefix(5);
    return std::string(name.substr(0, name.find('.')));
  }
  if (name == "darkvec.fit") return "corpus";
  if (name == "darkvec.cluster") return "w2v";
  if (name == "io.read_csv" || name == "io.read_binary") return "net";
  if (name == "io.load_embedding") return "w2v";
  if (name.starts_with("darkvec.") || name.starts_with("stream.")) {
    return "core";
  }
  const std::size_t dot = name.find('.');
  return std::string(name.substr(0, dot));
}

struct SpanNode {
  std::string_view name;
  double start = 0;  // seconds
  double dur = 0;
  double self = 0;
  int parent = -1;
};

// Main-thread span forest with self times (duration minus the part its
// direct children cover; spans on one thread nest strictly).
std::vector<SpanNode> span_forest(const std::vector<dv::obs::TraceEvent>& ev,
                                  std::uint32_t main_tid) {
  std::vector<SpanNode> nodes;
  for (const dv::obs::TraceEvent& e : ev) {
    if (e.thread_id != main_tid || e.name == nullptr) continue;
    nodes.push_back({e.name, static_cast<double>(e.start_ns) * 1e-9,
                     static_cast<double>(e.dur_ns) * 1e-9, 0, -1});
  }
  std::sort(nodes.begin(), nodes.end(), [](const SpanNode& a,
                                           const SpanNode& b) {
    return a.start != b.start ? a.start < b.start : a.dur > b.dur;
  });
  std::vector<int> stack;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    while (!stack.empty()) {
      const SpanNode& top = nodes[static_cast<std::size_t>(stack.back())];
      if (nodes[i].start < top.start + top.dur) break;
      stack.pop_back();
    }
    nodes[i].parent = stack.empty() ? -1 : stack.back();
    nodes[i].self = nodes[i].dur;
    stack.push_back(static_cast<int>(i));
  }
  for (const SpanNode& n : nodes) {
    if (n.parent >= 0) nodes[static_cast<std::size_t>(n.parent)].self -= n.dur;
  }
  return nodes;
}

// Counters and gauges read as deltas around one job.
struct CounterProbe {
  std::uint64_t w2v_pairs = 0, w2v_tokens = 0, knn_queries = 0,
                ann_queries = 0, ann_scanned = 0, louvain_moves = 0,
                louvain_passes = 0;
  double health_seconds = 0;

  static CounterProbe read() {
    namespace n = dv::obs::names;
    return {dv::obs::counter(n::kW2vPairs).value(),
            dv::obs::counter(n::kW2vTokens).value(),
            dv::obs::counter(n::kKnnQueries).value(),
            dv::obs::counter(n::kAnnQueries).value(),
            dv::obs::counter(n::kAnnCandidatesScanned).value(),
            dv::obs::counter(n::kLouvainMoves).value(),
            dv::obs::counter(n::kLouvainPasses).value(),
            dv::obs::gauge(n::kHealthObserveSeconds).value()};
  }
  CounterProbe minus(const CounterProbe& b) const {
    return {w2v_pairs - b.w2v_pairs,         w2v_tokens - b.w2v_tokens,
            knn_queries - b.knn_queries,     ann_queries - b.ann_queries,
            ann_scanned - b.ann_scanned,     louvain_moves - b.louvain_moves,
            louvain_passes - b.louvain_passes,
            health_seconds - b.health_seconds};
  }
};

using Metrics = std::map<std::string, double>;

// What a job hands the attribution besides spans and counters.
struct JobFacts {
  std::uint64_t packets_read = 0;
  std::uint64_t senders = 0;  // rows of the (final) model
  int epochs = 1;
};

Metrics attribute(const std::vector<SpanNode>& nodes, const CounterProbe& c,
                  const JobFacts& facts, double wall) {
  Metrics m;
  const auto sum_dur = [&](auto pred) {
    double s = 0;
    for (const SpanNode& n : nodes) s += pred(n) ? n.dur : 0;
    return s;
  };
  const auto named = [&](std::string_view name) {
    return sum_dur([&](const SpanNode& n) { return n.name == name; });
  };
  const auto self_of = [&](std::string_view name) {
    double s = 0;
    for (const SpanNode& n : nodes) s += n.name == name ? n.self : 0;
    return s;
  };

  // Layer self times. The health monitor runs inside stream.window with
  // no span of its own: its time is the health.observe_seconds gauge,
  // and the k-NN spans it opens sit directly under stream.window.
  std::map<std::string, double> self;
  for (const char* layer : kLayers) self[layer] = 0;
  for (const SpanNode& n : nodes) self[layer_of(n.name)] += n.self;
  double health_children = 0;
  for (const SpanNode& n : nodes) {
    if (n.parent >= 0 &&
        nodes[static_cast<std::size_t>(n.parent)].name == "stream.window" &&
        n.name.starts_with("ml.")) {
      health_children += n.dur;
    }
  }
  const double obs_self = std::max(0.0, c.health_seconds - health_children);
  self["obs"] += obs_self;
  self["core"] -= obs_self;
  double attributed = 0;
  for (const auto& [layer, s] : self) {
    m[layer + ".self_s"] = s;
    attributed += s;
  }
  m["traced_wall_s"] = wall;
  m["unattributed_s"] = wall - attributed;

  const double train = named("w2v.train");
  m["w2v.train_s"] = train;
  m["w2v.pairs"] = static_cast<double>(c.w2v_pairs);
  m["w2v.pairs_per_s"] = train > 0 ? static_cast<double>(c.w2v_pairs) / train
                                   : 0;
  m["w2v.normalize_s"] =
      named("call.w2v.normalize") + self_of("darkvec.cluster");
  const double read = sum_dur([](const SpanNode& n) {
    return n.name.starts_with("call.net.");
  });
  m["net.read_s"] = read;
  m["net.packets_per_s"] =
      read > 0 ? static_cast<double>(facts.packets_read) / read : 0;
  m["corpus.build_s"] = self_of("darkvec.fit");
  m["corpus.tokens"] =
      static_cast<double>(c.w2v_tokens) / static_cast<double>(facts.epochs);
  m["graph.knn_graph_s"] = named("graph.knn_graph");
  m["graph.louvain_s"] = named("graph.louvain");
  m["graph.louvain_moves"] = static_cast<double>(c.louvain_moves);
  m["graph.louvain_passes"] = static_cast<double>(c.louvain_passes);
  m["ml.loo_s"] = sum_dur([](const SpanNode& n) {
    return n.name.starts_with("call.ml.evaluate_knn");
  });
  m["ml.silhouette_s"] = named("call.ml.silhouette_samples");
  const double query_time = named("ml.batch_topk") + named("ml.batch_topk_i8") +
                            named("ml.ann.query_batch");
  const double queries = static_cast<double>(c.knn_queries + c.ann_queries);
  m["ml.knn_queries_per_s"] = query_time > 0 ? queries / query_time : 0;
  m["ml.ann_scan_fraction"] =
      c.ann_queries > 0 && facts.senders > 0
          ? static_cast<double>(c.ann_scanned) /
                (static_cast<double>(c.ann_queries) *
                 static_cast<double>(facts.senders))
          : 0;
  m["core.load_model_s"] = named("call.core.load_model");
  m["core.save_model_s"] = named("call.core.save_model");
  m["core.inspect_s"] = named("call.core.inspect_clusters");

  std::vector<double> windows;
  double align = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].name != "stream.window") continue;
    windows.push_back(nodes[i].dur);
    double model = 0;
    for (const SpanNode& n : nodes) {
      if (n.parent == static_cast<int>(i) &&
          (n.name == "darkvec.fit" || n.name == "darkvec.cluster")) {
        model += n.dur;
      }
    }
    align += nodes[i].dur - model;
  }
  m["core.stream_window_p50_s"] = median(windows);
  m["core.stream_window_max_s"] =
      windows.empty() ? 0 : *std::max_element(windows.begin(), windows.end());
  m["core.stream_align_s"] =
      windows.empty() ? 0 : std::max(0.0, align - c.health_seconds);
  m["obs.health_observe_s"] = c.health_seconds;
  return m;
}

// ---- job outputs -----------------------------------------------------------

// End-to-end quality of one repetition, plus the digest that must repeat
// across repetitions of the same inputs.
struct Quality {
  double knn_accuracy = 0;
  double modularity = 0;
  double alignment_similarity = 0;
  double ann_recall = 0;
  std::optional<std::uint64_t> digest;
};

struct JobResult {
  Quality quality;
  JobFacts facts;
  double wall = 0;  // seconds from the input file to the complete result
  CounterProbe counters;  // read where the timed part ends
};

// Ends a job's timed part: everything after it is output checking, which
// is neither timed nor traced.
void end_timed(JobResult& r, Clock::time_point t0) {
  r.wall = seconds_since(t0);
  dv::obs::Tracer::instance().set_enabled(false);
  r.counters = CounterProbe::read();
}

// ---- pipeline --------------------------------------------------------------

struct PipelineInputs {
  std::string trace_csv;
  std::string model_prefix;
  dv::sim::LabelMap labels;
  dv::sim::GroupMap groups;
};

PipelineInputs setup_pipeline(std::uint64_t seed, const fs::path& dir,
                              std::uint64_t* input_digest) {
  dv::sim::SimConfig config;
  config.days = kPipeline.days;
  config.scale = kPipeline.scale;
  config.seed = seed;
  dv::sim::SimResult sim =
      dv::sim::DarknetSimulator(config).run(dv::sim::paper_scenario());
  PipelineInputs in;
  in.trace_csv = (dir / "trace.csv").string();
  in.model_prefix = (dir / "model").string();
  dv::net::write_csv_file(in.trace_csv, sim.trace);
  in.labels = std::move(sim.labels);
  in.groups = std::move(sim.groups);
  *input_digest = digest_trace(sim.trace);
  return in;
}

JobResult run_pipeline(const PipelineInputs& in, Tally& tally) {
  const auto t0 = Clock::now();
  JobResult r;
  r.facts.epochs = kPipeline.epochs;
  dv::net::Trace trace;
  {
    const dv::obs::Span s("call.net.read_csv_file");
    trace = dv::net::read_csv_file(in.trace_csv);
  }
  r.facts.packets_read = trace.size();
  dv::DarkVec model(darkvec_config(kPipeline));
  {
    const dv::obs::Span s("call.core.fit");
    model.fit(trace);
  }
  {
    // DarkVec builds its cosine index lazily; building it here, where
    // evaluate_knn would, gives the normalisation a span of its own.
    const dv::obs::Span s("call.w2v.normalize");
    (void)model.knn();
  }
  std::vector<dv::net::IPv4> eval_ips;
  {
    const dv::obs::Span s("call.core.last_day_active_senders");
    eval_ips = dv::last_day_active_senders(trace);
  }
  std::optional<dv::KnnEvaluation> eval;
  {
    const dv::obs::Span s("call.ml.evaluate_knn");
    eval.emplace(dv::evaluate_knn(model, in.labels, eval_ips, kEvalK));
  }
  dv::Clustering clustering;
  {
    const dv::obs::Span s("call.core.cluster");
    clustering = model.cluster(kClusterKPrime);
  }
  std::vector<double> silhouette;
  {
    const dv::obs::Span s("call.ml.silhouette_samples");
    silhouette =
        dv::ml::silhouette_samples(model.embedding(), clustering.assignment);
  }
  std::vector<dv::ClusterInfo> clusters;
  {
    const dv::obs::Span s("call.core.inspect_clusters");
    clusters = dv::inspect_clusters(trace, model.corpus(),
                                    clustering.assignment, in.groups,
                                    silhouette);
  }
  {
    const dv::obs::Span s("call.core.save_model");
    dv::save_model(in.model_prefix,
                   dv::SenderModel{model.corpus().words, model.embedding()});
  }
  end_timed(r, t0);
  r.facts.senders = model.corpus().words.size();
  r.quality.knn_accuracy = eval->accuracy;
  r.quality.modularity = clustering.modularity;

  tally.check(eval->accuracy > kAccuracyFloor,
              "pipeline: 7-NN accuracy " + std::to_string(eval->accuracy) +
                  " above the integration-test floor");
  tally.check(clustering.modularity > kModularityFloor,
              "pipeline: k'=3 modularity " +
                  std::to_string(clustering.modularity) + " above the floor");
  tally.check(silhouette.size() == model.corpus().words.size() &&
                  std::all_of(silhouette.begin(), silhouette.end(),
                              [](double x) { return std::isfinite(x); }),
              "pipeline: one finite silhouette per sender");
  tally.check(!clusters.empty(), "pipeline: cluster report is not empty");
  const dv::SenderModel reloaded = dv::load_model(in.model_prefix);
  tally.check(same_model(reloaded, model.corpus().words, model.embedding()),
              "pipeline: saved model reloads bit-identically");
  r.quality.alignment_similarity =
      round_trip_similarity(model.corpus(), model.embedding(), reloaded);
  r.quality.ann_recall = ivf_recall(model.embedding(), kClusterKPrime);
  return r;
}

// ---- stream ----------------------------------------------------------------

struct StreamInputs {
  std::string trace_dvkt;
  dv::sim::LabelMap labels;
  std::size_t expected_windows = 0;
};

StreamInputs setup_stream(std::uint64_t seed, const fs::path& dir,
                          std::uint64_t* input_digest) {
  dv::sim::SimConfig config;
  config.days = kStream.days;
  config.scale = kStream.scale;
  config.seed = seed;
  dv::sim::SimResult sim =
      dv::sim::DarknetSimulator(config).run(dv::sim::paper_scenario());
  StreamInputs in;
  in.trace_dvkt = (dir / "trace.dvkt").string();
  dv::net::write_binary_file(in.trace_dvkt, sim.trace);
  in.labels = std::move(sim.labels);
  // run_streaming's schedule: window ends t0+W, +S, ... up to the first
  // end past the last packet.
  const std::int64_t t0 = sim.trace[0].ts;
  const std::int64_t t_last = sim.trace[sim.trace.size() - 1].ts;
  for (std::int64_t end = t0 + kStreamWindow;; end += kStreamStep) {
    ++in.expected_windows;
    if (end > t_last) break;
  }
  *input_digest = digest_trace(sim.trace);
  return in;
}

JobResult run_stream(const StreamInputs& in, Tally& tally) {
  const auto t0 = Clock::now();
  JobResult r;
  r.facts.epochs = kStream.epochs;
  dv::net::Trace trace;
  {
    const dv::obs::Span s("call.net.read_binary_file");
    trace = dv::net::read_binary_file(in.trace_dvkt);
  }
  r.facts.packets_read = trace.size();
  dv::StreamingConfig config;
  config.window_seconds = kStreamWindow;
  config.step_seconds = kStreamStep;
  config.darkvec = darkvec_config(kStream);
  config.k_prime = kClusterKPrime;
  config.align = true;
  config.health = true;
  dv::StreamingResult result;
  {
    const dv::obs::Span s("call.core.run_streaming_monitored");
    result = dv::run_streaming_monitored(trace, config);
  }
  // Each window's model labels its own senders (leave-one-out); the
  // quality metric is the mean over windows.
  double accuracy = 0;
  for (const dv::StreamSnapshot& snap : result.snapshots) {
    if (snap.degraded) continue;
    const dv::obs::Span s("call.ml.evaluate_knn_vectors");
    accuracy += dv::evaluate_knn_vectors(snap.embedding, snap.senders,
                                         in.labels, snap.senders, kEvalK)
                    .accuracy;
  }
  end_timed(r, t0);

  double modularity = 0;
  double alignment = 0;
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < result.snapshots.size(); ++i) {
    const dv::StreamSnapshot& snap = result.snapshots[i];
    degraded += snap.degraded ? 1 : 0;
    modularity += snap.clustering.modularity;
    if (i > 0) alignment += snap.alignment_similarity;
  }
  const std::size_t n = result.snapshots.size();
  r.facts.senders = n > 0 ? result.snapshots.back().senders.size() : 0;
  r.quality.knn_accuracy = n > 0 ? accuracy / static_cast<double>(n) : 0;
  r.quality.modularity = n > 0 ? modularity / static_cast<double>(n) : 0;
  r.quality.alignment_similarity =
      n > 1 ? alignment / static_cast<double>(n - 1) : 0;
  tally.check(result.completed, "stream: run completed");
  tally.check(result.failures.empty(), "stream: no failed windows");
  tally.check(degraded == 0, "stream: no degraded windows");
  tally.check(n == in.expected_windows,
              "stream: " + std::to_string(n) + " snapshots for " +
                  std::to_string(in.expected_windows) + " windows");
  tally.check(result.health.size() == n,
              "stream: one health report per window");
  if (n > 0) {
    r.quality.ann_recall =
        ivf_recall(result.snapshots.back().embedding, kClusterKPrime);
  }
  return r;
}

// ---- sweep -----------------------------------------------------------------

struct SweepInputs {
  std::string model_prefix;
  dv::sim::LabelMap labels;
  std::vector<dv::net::IPv4> eval_ips;
  // The set-up model, kept to check the timed load against.
  dv::corpus::Corpus corpus;
  dv::w2v::Embedding embedding;
  dv::w2v::TrainStats train;
};

SweepInputs setup_sweep(std::uint64_t seed, const fs::path& dir,
                        std::uint64_t* input_digest) {
  dv::sim::SimConfig config;
  config.days = kSweep.days;
  config.scale = kSweep.scale;
  config.seed = seed;
  dv::sim::SimResult sim =
      dv::sim::DarknetSimulator(config).run(dv::sim::paper_scenario());
  SweepInputs in;
  in.model_prefix = (dir / "model").string();
  // Single-threaded SGNS is bit-deterministic, so every set-up (and every
  // run with this seed) analyses the same model.
  dv::DarkVec model(darkvec_config(kSweep));
  in.train = model.fit(sim.trace);
  dv::save_model(in.model_prefix,
                 dv::SenderModel{model.corpus().words, model.embedding()});
  in.labels = std::move(sim.labels);
  in.eval_ips = dv::last_day_active_senders(sim.trace);
  in.corpus = model.corpus();
  in.embedding = model.embedding();
  Digest d;
  d.pod(digest_trace(sim.trace));
  d.span(std::span<const float>(in.embedding.data()));
  *input_digest = d.h;
  return in;
}

JobResult run_sweep(const SweepInputs& in, Tally& tally) {
  const auto t0 = Clock::now();
  JobResult r;
  dv::SenderModel model;
  {
    const dv::obs::Span s("call.core.load_model");
    model = dv::load_model(in.model_prefix);
  }
  std::optional<dv::ml::CosineKnn> knn;
  {
    const dv::obs::Span s("call.w2v.normalize");
    knn.emplace(model.embedding);
  }
  r.facts.senders = knn->size();

  // Fig. 10: modularity over k' = 1..8.
  std::optional<dv::graph::WeightedGraph> exact3;
  dv::graph::LouvainResult louvain3;
  for (int k_prime = 1; k_prime <= 8; ++k_prime) {
    std::optional<dv::graph::WeightedGraph> g;
    {
      const dv::obs::Span s("call.graph.knn_graph");
      g.emplace(dv::graph::knn_graph(*knn, k_prime));
    }
    dv::graph::LouvainResult lr;
    {
      const dv::obs::Span s("call.graph.louvain");
      lr = dv::graph::louvain(*g);
    }
    if (k_prime == kClusterKPrime) {
      exact3 = std::move(g);
      louvain3 = std::move(lr);
    }
  }
  {
    const dv::obs::Span s("call.ml.silhouette_samples");
    (void)dv::ml::silhouette_samples(model.embedding, louvain3.community);
  }
  std::optional<dv::graph::WeightedGraph> ivf3;
  {
    dv::ml::AnnSearchParams ann;
    ann.enabled = true;
    const dv::obs::Span s("call.graph.knn_graph");
    ivf3.emplace(dv::graph::knn_graph(*knn, kClusterKPrime, ann));
  }
  // Fig. 7: LOO accuracy over k.
  for (const int k : {1, 3, 5, 7, 9}) {
    const dv::obs::Span s("call.ml.evaluate_knn_vectors");
    const double acc =
        dv::evaluate_knn_vectors(model.embedding, model.senders, in.labels,
                                 in.eval_ips, k)
            .accuracy;
    if (k == kEvalK) r.quality.knn_accuracy = acc;
  }
  end_timed(r, t0);
  r.quality.modularity = louvain3.modularity;
  r.quality.digest = digest_graph_partition(*exact3, louvain3.community);
  r.quality.ann_recall = edge_recall(*exact3, *ivf3);
  tally.check(r.quality.ann_recall >= kAnnRecallFloor,
              "sweep: IVF k'=3 recall " + std::to_string(r.quality.ann_recall) +
                  " >= 0.95");
  tally.check(same_model(model, in.corpus.words, in.embedding),
              "sweep: loaded model is bit-identical to the trained one");
  r.quality.alignment_similarity =
      round_trip_similarity(in.corpus, in.embedding, model);
  return r;
}

// ---- command line and run loop ---------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--workdir") {
      a.workdir = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !have_seed || a.seconds <= 0 ||
      a.workdir.empty()) {
    return std::nullopt;
  }
  return a;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Names and units must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},           {"setup_s", "s"},
    {"peak_rss_mb", "MB"},     {"pass_rate", "ratio"},
    {"knn_accuracy", "ratio"}, {"modularity", "ratio"},
    {"alignment_similarity", "ratio"}, {"ann_recall", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"w2v.train_s", "s"},
    {"w2v.pairs_per_s", "1/s"},
    {"w2v.pairs", "count"},
    {"w2v.normalize_s", "s"},
    {"net.read_s", "s"},
    {"net.packets_per_s", "1/s"},
    {"corpus.build_s", "s"},
    {"corpus.tokens", "count"},
    {"graph.knn_graph_s", "s"},
    {"graph.louvain_s", "s"},
    {"graph.louvain_moves", "count"},
    {"graph.louvain_passes", "count"},
    {"ml.loo_s", "s"},
    {"ml.silhouette_s", "s"},
    {"ml.knn_queries_per_s", "1/s"},
    {"ml.ann_scan_fraction", "ratio"},
    {"core.load_model_s", "s"},
    {"core.save_model_s", "s"},
    {"core.inspect_s", "s"},
    {"core.stream_window_p50_s", "s"},
    {"core.stream_window_max_s", "s"},
    {"core.stream_align_s", "s"},
    {"obs.health_observe_s", "s"},
    {"obs.trace_overhead", "ratio"},
    {"unattributed_s", "s"},
    {"traced_wall_s", "s"},
    {"net.self_s", "s"},
    {"corpus.self_s", "s"},
    {"w2v.self_s", "s"},
    {"ml.self_s", "s"},
    {"graph.self_s", "s"},
    {"core.self_s", "s"},
    {"obs.self_s", "s"},
};

template <std::size_t N>
std::string metrics_json(const Metrics& m, const MetricSpec (&specs)[N]) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = m.find(specs[i].name);
    out += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name +
           "\": {\"value\": " +
           json_number(it == m.end() ? 0.0 : it->second) + ", \"unit\": \"" +
           specs[i].unit + "\"}";
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload* cand : {&kPipeline, &kStream, &kSweep}) {
    if (args.workload == cand->name) w = cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  fs::create_directories(args.workdir);
  const fs::path dir(args.workdir);
  Tally tally;

  // Set-up: pool start-up plus input generation (and, for sweep, model
  // training and saving), repeated; the inputs must repeat exactly.
  std::vector<double> setup_times;
  std::vector<std::uint64_t> input_digests;
  std::optional<PipelineInputs> pipeline;
  std::optional<StreamInputs> stream;
  std::optional<SweepInputs> sweep;
  std::vector<double> setup_train_s;
  for (int i = 0; i < w->setup_repeats; ++i) {
    const auto t0 = Clock::now();
    dv::core::ThreadPool::set_global_threads(w->pool_threads);
    std::uint64_t digest = 0;
    if (w == &kPipeline) pipeline = setup_pipeline(args.seed, dir, &digest);
    if (w == &kStream) stream = setup_stream(args.seed, dir, &digest);
    if (w == &kSweep) {
      sweep = setup_sweep(args.seed, dir, &digest);
      setup_train_s.push_back(sweep->train.seconds);
    }
    setup_times.push_back(seconds_since(t0));
    input_digests.push_back(digest);
  }
  for (std::uint64_t d : input_digests) {
    tally.check(d == input_digests.front(),
                "set-up: inputs repeat exactly for one seed");
  }

  const auto job = [&]() -> JobResult {
    if (pipeline) return run_pipeline(*pipeline, tally);
    if (stream) return run_stream(*stream, tally);
    return run_sweep(*sweep, tally);
  };

  // Timed repetitions. In trace mode they alternate untraced / traced.
  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<Quality> qualities;
  std::vector<Metrics> layer_runs;
  JobFacts facts;  // of the last repetition, for the provenance
  int job_failures = 0;
  auto& tracer = dv::obs::Tracer::instance();
  const auto t_start = Clock::now();
  for (int rep = 0;; ++rep) {
    const bool enough = static_cast<int>(walls.size()) >= kMinRepeats &&
                        (!args.trace ||
                         static_cast<int>(traced_walls.size()) >= kMinRepeats);
    if (enough && seconds_since(t_start) >= args.seconds) break;
    const bool traced = args.trace && rep % 2 == 1;
    tracer.clear();
    tracer.set_enabled(traced);
    const CounterProbe before = CounterProbe::read();
    JobResult r;
    ++tally.attempted;
    try {
      r = job();
    } catch (const std::exception& e) {
      tracer.set_enabled(false);
      ++tally.failed;
      std::fprintf(stderr, "perfbench: %s job failed: %s\n", w->name,
                   e.what());
      // A job that keeps throwing would never reach kMinRepeats.
      if (++job_failures > 3) break;
      continue;
    }
    qualities.push_back(r.quality);
    facts = r.facts;
    if (!traced) {
      walls.push_back(r.wall);
      continue;
    }
    // The checks move counters too: take the delta at the timed part's end.
    const CounterProbe delta = r.counters.minus(before);
    const std::vector<dv::obs::TraceEvent> events = tracer.events();
    std::uint32_t main_tid = 0;
    for (const dv::obs::TraceEvent& e : events) {
      if (std::string_view(e.name).starts_with("call.")) {
        main_tid = e.thread_id;
        break;
      }
    }
    Metrics m =
        attribute(span_forest(events, main_tid), delta, r.facts, r.wall);
    tally.check(m["unattributed_s"] >= -1e-6 &&
                    m["unattributed_s"] < kMaxUnattributed * r.wall,
                "trace: layer self times cover the traced wall time "
                "(unattributed " + std::to_string(m["unattributed_s"]) +
                    " s)");
    for (const char* layer : kLayers) {
      tally.check(m[std::string(layer) + ".self_s"] >= -1e-6,
                  std::string("trace: non-negative self time for ") + layer);
    }
    layer_runs.push_back(std::move(m));
    traced_walls.push_back(r.wall);
  }

  // Repetitions of one input must produce bit-identical results where
  // the workload is deterministic (sweep: no SGNS, exact graph layer).
  for (const Quality& q : qualities) {
    if (q.digest) {
      tally.check(q.digest == qualities.front().digest,
                  std::string(w->name) + ": outputs repeat bit-identically");
    }
  }

  std::fprintf(stderr, "perfbench: %s untraced walls (s):", w->name);
  for (const double x : walls) std::fprintf(stderr, " %.4f", x);
  std::fprintf(stderr, "\n");

  Metrics e2e;
  e2e["wall_s"] = median(walls);
  e2e["setup_s"] = median(setup_times);
  // Hogwild SGNS (pipeline, stream) differs run to run; sweep repeats
  // exactly.
  const auto quality_median = [&](double Quality::*field) {
    std::vector<double> v;
    for (const Quality& q : qualities) v.push_back(q.*field);
    return median(v);
  };
  e2e["knn_accuracy"] = quality_median(&Quality::knn_accuracy);
  e2e["modularity"] = quality_median(&Quality::modularity);
  e2e["alignment_similarity"] = quality_median(&Quality::alignment_similarity);
  e2e["ann_recall"] = quality_median(&Quality::ann_recall);

  Metrics layers;
  if (args.trace) {
    std::map<std::string, std::vector<double>> cols;
    for (const Metrics& m : layer_runs) {
      for (const auto& [k, v] : m) cols[k].push_back(v);
    }
    for (const auto& [k, v] : cols) layers[k] = median(v);
    layers["obs.trace_overhead"] = median(traced_walls) / median(walls) - 1.0;
    if (w == &kSweep) {
      // SGNS runs only in the sweep's set-up.
      layers["w2v.train_s"] = median(setup_train_s);
      layers["w2v.pairs"] = static_cast<double>(sweep->train.pairs);
      layers["w2v.pairs_per_s"] =
          static_cast<double>(sweep->train.pairs) / layers["w2v.train_s"];
      layers["corpus.tokens"] = static_cast<double>(sweep->train.tokens) /
                                static_cast<double>(kSweep.epochs);
    }
  }
  e2e["peak_rss_mb"] = peak_rss_mb();
  e2e["pass_rate"] =
      1.0 - static_cast<double>(tally.failed) /
                static_cast<double>(std::max<std::uint64_t>(1,
                                                            tally.attempted));

  // Provenance of this process; run.py adds revision and host facts.
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"simd_level\": \"%s\", \"pool_threads\": %d, \"sgns_threads\": %d, "
      "\"hardware_threads\": %u, \"setup_repeats\": %d, \"timed_repeats\": "
      "%zu, \"traced_repeats\": %zu, \"days\": %d, \"scale\": %.17g, "
      "\"packets_read\": %llu, \"model_senders\": %llu, "
      "\"input_digest\": \"%016llx\"}}\n",
      w->name, static_cast<unsigned long long>(args.seed),
      dv::simd::level_name(dv::simd::active_level()),
      w->pool_threads, w->sgns_threads, std::thread::hardware_concurrency(),
      w->setup_repeats, walls.size(), traced_walls.size(), w->days, w->scale,
      static_cast<unsigned long long>(facts.packets_read),
      static_cast<unsigned long long>(facts.senders),
      static_cast<unsigned long long>(input_digests.front()));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              args.trace ? metrics_json(layers, kPerLayer).c_str()
                         : metrics_json(e2e, kEndToEnd).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::optional<Args> args = parse_args(argc, argv);
    if (!args) {
      std::fprintf(stderr,
                   "usage: dv_perfbench --workload pipeline|stream|sweep "
                   "--seed N --seconds S --trace 0|1 --workdir DIR\n");
      return 2;
    }
    return run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
