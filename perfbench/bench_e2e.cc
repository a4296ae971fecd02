// End-to-end benchmark driver: runs one workload (one `mhbench run` cell)
// once through the library's public API and prints its raw measurements as
// a single JSON line on stdout.
//
//   bench_e2e --workload <name> --seed N --trace 0|1 --tiny 0|1 --out-dir D
//
// perfbench/run.py launches one process per repetition, so the peak RSS it
// reports belongs to that workload alone, and turns the raw numbers into
// the named metrics.  Every layer is timed from outside: the engine is
// handed a forwarding MhflAlgorithm (TimedAlgorithm) that timestamps the
// calls into the algorithm layer.  With --trace 0 it stamps only round
// boundaries; with --trace 1 it times every forwarded call, reads the
// kernel counters and attaches the obs::Profiler for per-op numbers.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "constraints/assignment.h"
#include "core/error.h"
#include "data/tasks.h"
#include "device/ima_fleet.h"
#include "fl/engine.h"
#include "models/zoo.h"
#include "obs/det_audit.h"
#include "obs/journal.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "obs/registry.h"
#include "tensor/gemm.h"
#include "tensor/scratch.h"
#include "tensor/tensor.h"

namespace {

using namespace mhbench;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Workload {
  const char* name;
  const char* task;
  const char* algorithm;
  int clients;
  int threads;
  int rounds;
  int train_samples;
  int test_samples;
  double sample_fraction;
  int eval_every;
  int eval_max_samples;
  int stability_max_samples;
  // Every artifact a campaign writes (manifest, rounds/tiers CSV, client
  // journal, profiler, det-audit ledger, checkpoints), wired as
  // `mhbench run --manifest-dir ... --det-audit 1 --checkpoint-every N`.
  bool observed;
};

// Why each workload exists is recorded in BENCHMARK.json.  cv-width-train
// trains every client every round: its sub-model sizes differ ~16x, so
// sampling a subset would make the work per run depend on the seed.
constexpr Workload kWorkloads[] = {
    {"cv-width-train", "cifar10", "sheterofl", 20, 1, 20, 320, 160, 1.0, 5,
     160, 128, false},
    {"nlp-topology-eval", "agnews", "fedproto", 60, 2, 25, 3000, 200, 0.25,
     5, 200, 200, false},
    {"har-fleet-observed", "harbox", "depthfl", 100, 2, 30, 2000, 200, 0.25,
     5, 200, 200, true},
};

// Shrinks a workload to a smoke-test size (perfbench's self-test).
Workload Tiny(Workload w) {
  w.rounds = 12;
  w.train_samples = w.clients * 4;
  w.test_samples = 40;
  w.eval_every = 4;
  w.eval_max_samples = 40;
  w.stability_max_samples = 16;
  return w;
}

double CurrentRssMb() {
  long pages = 0;
  long resident = 0;
  std::ifstream statm("/proc/self/statm");
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Forwards every call to the wrapped algorithm and timestamps the calls
// into the algorithm layer.  RunClient may run concurrently: each
// participant writes only its own slot (fixed serially in BeginRound), and
// ClientLogits only its own client's slot, so the engine's threading
// contract (fl/engine.h) holds for the wrapper too.
class TimedAlgorithm final : public fl::MhflAlgorithm {
 public:
  TimedAlgorithm(fl::MhflAlgorithm& inner, bool trace, int rounds)
      : inner_(inner), trace_(trace) {
    round_starts.reserve(static_cast<std::size_t>(rounds));
  }

  // ---- Round boundaries (always stamped) ----
  std::vector<Clock::time_point> round_starts;  // BeginRound entry
  Clock::time_point eval_start;                 // PrepareEvaluation entry

  // ---- Traced-run measurements ----
  double setup_s = 0.0;
  double setup_rss_mb = 0.0;
  double dispatch_s = 0.0;  // BeginRound return -> FinishRound call
  double merge_s = 0.0;     // FinishRound
  double global_eval_s = 0.0;
  std::vector<double> client_task_ms;  // one per RunClient
  std::uint64_t client_heap_allocs = 0;
  std::uint64_t train_flops = 0;  // GEMM flops inside RunClient
  double train_wall_s = 0.0;      // sum of RunClient wall time
  std::vector<double> client_eval_ns;  // per client, sum of ClientLogits
  std::uint64_t eval_flops_start = 0;

  std::string name() const override { return inner_.name(); }

  void Setup(const fl::FlContext& ctx, Rng& rng) override {
    if (!trace_) {
      inner_.Setup(ctx, rng);
      return;
    }
    const auto t0 = Clock::now();
    inner_.Setup(ctx, rng);
    setup_s = Seconds(t0, Clock::now());
    setup_rss_mb = CurrentRssMb();
    slot_of_.assign(static_cast<std::size_t>(ctx.num_clients()), 0);
    client_eval_ns.assign(static_cast<std::size_t>(ctx.num_clients()), 0.0);
  }

  void BeginRound(int round, const std::vector<int>& participants) override {
    round_starts.push_back(Clock::now());
    inner_.BeginRound(round, participants);
    if (!trace_) return;
    slots_.assign(participants.size(), Slot{});
    for (std::size_t i = 0; i < participants.size(); ++i) {
      slot_of_[static_cast<std::size_t>(participants[i])] = i;
    }
    dispatch_start_ = Clock::now();
  }

  void RunClient(int client_id, int round, Rng& rng) override {
    if (!trace_) {
      inner_.RunClient(client_id, round, rng);
      return;
    }
    Slot& slot = slots_[slot_of_[static_cast<std::size_t>(client_id)]];
    const std::uint64_t flops0 = kernels::ThreadGemmFlops();
    const std::uint64_t allocs0 = Tensor::ThreadAllocStats().heap_allocs;
    const auto t0 = Clock::now();
    inner_.RunClient(client_id, round, rng);
    slot.wall_s = Seconds(t0, Clock::now());
    slot.flops = kernels::ThreadGemmFlops() - flops0;
    slot.heap_allocs = Tensor::ThreadAllocStats().heap_allocs - allocs0;
  }

  void FinishRound(int round, Rng& rng) override {
    if (!trace_) {
      inner_.FinishRound(round, rng);
      return;
    }
    const auto t0 = Clock::now();
    dispatch_s += Seconds(dispatch_start_, t0);
    inner_.FinishRound(round, rng);
    merge_s += Seconds(t0, Clock::now());
    for (const Slot& s : slots_) {
      client_task_ms.push_back(s.wall_s * 1e3);
      client_heap_allocs += s.heap_allocs;
      train_flops += s.flops;
      train_wall_s += s.wall_s;
    }
  }

  void PrepareEvaluation() override {
    eval_start = Clock::now();
    eval_flops_start = kernels::TotalGemmFlops();
    inner_.PrepareEvaluation();
  }

  Tensor GlobalLogits(const Tensor& x) override {
    if (!trace_) return inner_.GlobalLogits(x);
    const auto t0 = Clock::now();
    Tensor out = inner_.GlobalLogits(x);
    global_eval_s += Seconds(t0, Clock::now());
    return out;
  }

  Tensor ClientLogits(int client_id, const Tensor& x) override {
    if (!trace_) return inner_.ClientLogits(client_id, x);
    const auto t0 = Clock::now();
    Tensor out = inner_.ClientLogits(client_id, x);
    client_eval_ns[static_cast<std::size_t>(client_id)] +=
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    return out;
  }

  void SaveState(fl::SnapshotWriter& writer) const override {
    inner_.SaveState(writer);
  }
  void LoadState(fl::SnapshotReader& reader) override {
    inner_.LoadState(reader);
  }

 private:
  struct Slot {
    double wall_s = 0.0;
    std::uint64_t flops = 0;
    std::uint64_t heap_allocs = 0;
  };

  fl::MhflAlgorithm& inner_;
  const bool trace_;
  std::vector<Slot> slots_;             // per participant of this round
  std::vector<std::size_t> slot_of_;    // client id -> slot
  Clock::time_point dispatch_start_;
};

// Minimal JSON object writer for one output line.
class JsonLine {
 public:
  void Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Int(const char* key, std::uint64_t v) { Raw(key, std::to_string(v)); }
  void Str(const char* key, const std::string& v) {
    Raw(key, '"' + v + '"');
  }
  void Nums(const char* key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    Raw(key, s + "]");
  }
  void Raw(const char* key, const std::string& json) {
    out_ += out_.empty() ? '{' : ',';
    out_ += '"';
    out_ += key;
    out_ += "\":";
    out_ += json;
  }
  std::string Done() const { return out_ + "}"; }

 private:
  std::string out_;
};

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int RunWorkload(const Workload& w, std::uint64_t seed, bool trace,
                const std::string& out_dir) {
  const auto start = Clock::now();

  data::TaskConfig tcfg;
  tcfg.seed = seed;
  tcfg.train_samples = w.train_samples;
  tcfg.test_samples = w.test_samples;
  tcfg.num_clients = w.clients;
  const data::Task task = data::MakeTask(w.task, tcfg);
  const auto t_task = Clock::now();

  device::FleetConfig fcfg;
  fcfg.num_clients = w.clients;
  // The device population stays fixed, as `mhbench run` keeps it (fleet
  // seed 11) while --seed varies the data, partition, init and sampling.
  fcfg.seed = 11;
  const device::Fleet fleet = device::SampleFleet(fcfg);
  constraints::ConstraintFlags flags;
  flags.computation = true;
  const constraints::BuiltAssignments built =
      constraints::BuildConstrained(w.algorithm, w.task, fleet, flags);
  const auto t_constraints = Clock::now();

  algorithms::AlgorithmOptions aopts;
  aopts.seed = seed;
  auto algorithm = algorithms::MakeAlgorithm(
      w.algorithm, models::MakeTaskModels(w.task), aopts);
  TimedAlgorithm timed(*algorithm, trace, w.rounds);

  fl::FlConfig cfg;
  cfg.rounds = w.rounds;
  cfg.sample_fraction = w.sample_fraction;
  cfg.eval_every = w.eval_every;
  cfg.eval_max_samples = w.eval_max_samples;
  cfg.stability_max_samples = w.stability_max_samples;
  cfg.seed = seed;
  cfg.num_threads = w.threads;

  // Observability, wired as tools/mhbench.cc wires `mhbench run`.
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::Profiler> profiler;
  std::unique_ptr<obs::ClientJournalWriter> journal;
  std::unique_ptr<obs::DetAuditor> det_audit;
  const std::string run_id = std::string(w.name) + "-seed" +
                             std::to_string(seed);
  const std::string run_dir = out_dir + "/" + obs::SanitizeRunId(run_id);
  if (w.observed || trace) profiler = std::make_unique<obs::Profiler>();
  if (w.observed) {
    std::filesystem::create_directories(run_dir);
    registry = std::make_unique<obs::Registry>();
    obs::Registry* reg = registry.get();
    registry->SetRoundSink([reg, run_dir](const obs::Registry::RoundRow&) {
      obs::WriteRoundsCsv(run_dir, *reg);
      obs::WriteTiersCsv(run_dir, *reg);
    });
    obs::ClientJournalWriter::Options jopts;
    jopts.sample_seed = seed;
    journal = std::make_unique<obs::ClientJournalWriter>(
        run_dir + "/clients.mhbj", jopts);
    obs::ClientJournalWriter* jw = journal.get();
    registry->SetClientRowSink(
        [jw](std::vector<obs::Registry::ClientRow>&& rows) {
          jw->Append(rows);
        });
    det_audit =
        std::make_unique<obs::DetAuditor>(run_dir + "/det_audit.jsonl");
    det_audit->WriteHeader(w.algorithm, seed, w.rounds, w.threads);
    cfg.checkpoint_every = 10;
    cfg.checkpoint_dir = run_dir + "/checkpoints";
  }
  cfg.obs.registry = registry.get();
  cfg.obs.profiler = profiler.get();
  cfg.obs.det_audit = det_audit.get();

  const std::uint64_t gemm0 = kernels::TotalGemmFlops();
  const std::uint64_t chunks0 = kernels::ScratchChunkAllocs();
  fl::FlEngine engine(task, cfg, built.assignments, timed);
  const fl::RunResult result = engine.Run();
  const auto end = Clock::now();
  const std::uint64_t gemm_flops = kernels::TotalGemmFlops() - gemm0;
  const std::uint64_t eval_flops =
      kernels::TotalGemmFlops() - timed.eval_flops_start;
  const std::uint64_t scratch_peak = kernels::ScratchPeakBytesAllThreads();
  const std::uint64_t chunk_allocs = kernels::ScratchChunkAllocs() - chunks0;

  if (w.observed) {
    registry->SetRoundSink(nullptr);
    registry->SetClientRowSink(nullptr);
    journal->Close();
    obs::RunManifest m;
    m.run_id = run_id;
    m.tool = "perfbench";
    // Not obs::GitDescribe(): the checkout under test need not be a git
    // repository, and git would search the directories above it.
    m.git_describe = "unknown";
    m.created_utc = obs::IsoTimestampUtc();
    m.seed = seed;
    m.threads = w.threads;
    m.config = {{"task", w.task},
                {"constraint", "computation"},
                {"algorithm", w.algorithm},
                {"rounds", std::to_string(w.rounds)},
                {"clients", std::to_string(w.clients)},
                {"kernel_backend", kernels::KernelBackendName()}};
    m.metrics = {{std::string(w.algorithm) + ".global_accuracy",
                  result.final_accuracy},
                 {std::string(w.algorithm) + ".stability_variance",
                  result.StabilityVariance()}};
    obs::WriteRunManifest(out_dir, m, registry.get(), profiler.get());
  }

  MHB_CHECK(static_cast<int>(timed.round_starts.size()) == w.rounds)
      << "expected one BeginRound per round";
  std::vector<double> round_ms;
  for (std::size_t r = 0; r < timed.round_starts.size(); ++r) {
    const auto next = r + 1 < timed.round_starts.size()
                          ? timed.round_starts[r + 1]
                          : timed.eval_start;
    round_ms.push_back(Seconds(timed.round_starts[r], next) * 1e3);
  }

  // Output fingerprint: everything the run reports, bit for bit.
  obs::DetHash fp;
  fp.UpdateF64(result.final_accuracy);
  for (double a : result.client_accuracies) fp.UpdateF64(a);
  for (const auto& r : result.curve) {
    fp.UpdateI64(r.round);
    fp.UpdateF64(r.sim_time_s);
    fp.UpdateF64(r.global_acc);
  }
  if (det_audit != nullptr) fp.UpdateU64(det_audit->chain());
  char fp_hex[32];
  std::snprintf(fp_hex, sizeof(fp_hex), "%016" PRIx64, fp.value());

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  JsonLine j;
  j.Str("workload", w.name);
  j.Int("seed", seed);
  j.Int("trace", trace ? 1 : 0);
  j.Int("threads", static_cast<std::uint64_t>(w.threads));
  j.Str("kernel_backend", kernels::KernelBackendName());
  j.Str("fingerprint", fp_hex);
  j.Num("final_accuracy", result.final_accuracy);
  j.Num("mean_client_accuracy", result.MeanClientAccuracy());
  j.Num("chance_accuracy", 1.0 / models::TaskNumClasses(w.task));
  j.Num("setup_s", Seconds(start, timed.round_starts.front()));
  j.Num("loop_s", Seconds(timed.round_starts.front(), timed.eval_start));
  j.Nums("round_ms", round_ms);
  j.Num("final_eval_s", Seconds(timed.eval_start, end));
  j.Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  if (trace) {
    j.Num("make_task_s", Seconds(start, t_task));
    j.Num("constraints_build_s", Seconds(t_task, t_constraints));
    j.Num("algorithm_setup_s", timed.setup_s);
    j.Num("setup_rss_mb", timed.setup_rss_mb);
    j.Num("dispatch_s", timed.dispatch_s);
    j.Num("merge_s", timed.merge_s);
    j.Num("global_eval_s", timed.global_eval_s);
    j.Nums("client_task_ms", timed.client_task_ms);
    j.Int("client_heap_allocs", timed.client_heap_allocs);
    j.Int("train_flops", timed.train_flops);
    j.Num("train_wall_s", timed.train_wall_s);
    std::vector<double> client_eval_ms;
    for (double ns : timed.client_eval_ns) client_eval_ms.push_back(ns / 1e6);
    j.Nums("client_eval_ms", client_eval_ms);
    j.Int("gemm_flops", gemm_flops);
    j.Int("eval_flops", eval_flops);
    j.Int("scratch_peak_bytes", scratch_peak);
    j.Int("scratch_chunk_allocs", chunk_allocs);
    // Per-op profiler totals: name -> [gemm flops, wall ns].
    JsonLine ops;
    for (const auto& [op, s] : profiler->TotalsByName()) {
      char pair[64];
      std::snprintf(pair, sizeof(pair), "[%" PRId64 ",%" PRId64 "]",
                    s.gemm_flops, s.wall_ns);
      ops.Raw(op.c_str(), pair);
    }
    j.Raw("ops", ops.Done());
    j.Int("artifact_bytes", w.observed ? DirBytes(run_dir) : 0);
  }
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    args[argv[i] + 2] = argv[i + 1];
  }
  const Workload* w = FindWorkload(args["workload"]);
  if (w == nullptr || args["out-dir"].empty()) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <name> --seed N --trace 0|1 "
                 "--tiny 0|1 --out-dir DIR\n");
    return 2;
  }
  try {
    const std::uint64_t seed = std::stoull(args["seed"].empty() ? "1"
                                                                : args["seed"]);
    const Workload workload = args["tiny"] == "1" ? Tiny(*w) : *w;
    return RunWorkload(workload, seed, args["trace"] == "1", args["out-dir"]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
