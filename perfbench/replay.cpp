// Request-level benchmark: replays one workload's `map` requests
// through an in-process MappingService::handle_line, checks every returned
// mapping, and prints one JSON report line (see README.md).
//
//   perfbench_replay --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans FILE] [--setup-only 1]
//
// --trace 0 measures end to end. --trace 1 traces: on the cold workloads
// every request is sent once through handle_line and once through the
// service worker's steps called one by one, every call wrapped in a span;
// the spans are written to FILE when the run ends. --setup-only 1 stops
// once the first request is ready and prints only {"ready_s": ...}.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "arch/cgra.hpp"
#include "io/dfg_io.hpp"
#include "mapper/decoupled_mapper.hpp"
#include "mapper/fingerprint.hpp"
#include "mapper/mapping.hpp"
#include "sched/mii.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"
#include "space/monomorphism.hpp"
#include "support/json.hpp"
#include "support/outcome.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"
#include "workloads.hpp"
#include "workloads/suite.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_start = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

// ---------------------------------------------------------------- tracing

struct Span {
  std::string name;  // "<layer>.<call>"
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int request = -1;
  /// Phase totals the mapper reports on MapResult, attached under the
  /// span of the call that produced them; their start is nominal.
  bool derived = false;
};

/// Spans of one client thread, kept in memory until the run ends.
class Tracer {
 public:
  int open(const std::string& name, int request) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_s(), 0.0, parent, request, false});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = now_s();
    stack_.pop_back();
  }
  void derived(const std::string& name, int parent, double seconds) {
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    spans_.push_back(
        Span{name, p.start, p.start + seconds, parent, p.request, true});
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void append(const Tracer& other) {
    const int offset = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += offset;
      spans_.push_back(std::move(s));
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, int request)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, request) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

// ---------------------------------------------------------------- replies

/// Mapper effort behind one reply; only traced pipeline replies carry it
/// (the wire protocol reports ii and schedules_tried alone).
struct Effort {
  double time_phase_s = 0.0;
  double space_phase_s = 0.0;
  int sat_calls = 0;
  int instances_built = 0;
  int horizon_extensions = 0;
  int nogoods_added = 0;
  int narrow_nogoods = 0;
  int space_truncated = 0;
  int space_refuted = 0;
  std::uint64_t backjumps = 0;
  int budget_shrinks = 0;
  int budget_probes = 0;
  int iis_walked = 0;
};

struct Reply {
  bool parsed = false;
  std::string outcome;
  int ii = 0;
  int mii = 0;
  int ii_lo = 0;
  int ii_hi = 0;
  int schedules_tried = 0;
  bool memo_hit = false;
  double seconds = 0.0;
  std::string mapping;
  std::optional<Effort> effort;
};

Reply parse_reply(const std::string& text) {
  Reply r;
  const std::optional<monomap::json::Value> doc = monomap::json::parse(text);
  if (!doc.has_value() || !doc->is_object()) return r;
  r.parsed = true;
  r.outcome = doc->string_or("outcome", "");
  r.ii = static_cast<int>(doc->number_or("ii", 0));
  r.mii = static_cast<int>(doc->number_or("mii", 0));
  r.ii_lo = static_cast<int>(doc->number_or("ii_lo", 0));
  r.ii_hi = static_cast<int>(doc->number_or("ii_hi", 0));
  r.schedules_tried = static_cast<int>(doc->number_or("schedules_tried", 0));
  r.memo_hit = doc->bool_or("memo_hit", false);
  r.seconds = doc->number_or("seconds", 0.0);
  r.mapping = doc->string_or("mapping", "");
  return r;
}

struct Record {
  const Request* request = nullptr;
  Reply reply;
  double latency_s = 0.0;
};

struct PassResult {
  std::vector<Record> records;
  double wall_s = 0.0;
  // Service counters (stats verb, plus memo_invalid from the snapshot).
  double rejected = 0;
  double warm_starts = 0;
  double memo_hits = 0;
  double certs_seeded = 0;
  double memo_invalid = 0;
};

// ---------------------------------------------------------------- passes

/// The response fields a memo hit must reproduce from the cold answer.
struct AnswerFields {
  int ii, mii, ii_lo, ii_hi;
  bool operator==(const AnswerFields&) const = default;
};

/// The service counters of one pass: the stats verb, plus memo_invalid
/// from the snapshot.
void read_stats(monomap::MappingService& service, PassResult& out) {
  const std::optional<monomap::json::Value> doc = monomap::json::parse(
      service.handle_line("{\"verb\":\"stats\",\"id\":\"stats\"}"));
  if (doc.has_value()) {
    out.rejected = doc->number_or("rejected", 0);
    out.warm_starts = doc->number_or("warm_starts", 0);
    out.memo_hits = doc->number_or("memo_hits", 0);
    out.certs_seeded = doc->number_or("certs_seeded", 0);
  }
  out.memo_invalid = static_cast<double>(service.stats().store.memo_invalid);
}

/// One request through handle_line, timed from the client.
Record serve(monomap::MappingService& service, const Request& req) {
  Record rec;
  rec.request = &req;
  const double t0 = now_s();
  const std::string response = service.handle_line(req.line);
  rec.latency_s = now_s() - t0;
  rec.reply = parse_reply(response);
  return rec;
}

/// Replay one pass through handle_line on a fresh service, with w.clients
/// closed-loop clients sharing a cursor over each phase. With `tracers`,
/// each request gets a root span around handle_line (the worker's steps
/// are not visible here).
PassResult run_service_pass(const Workload& w, const Pass& pass,
                            monomap::MappingService& service,
                            std::vector<Tracer>* tracers, int first_rid) {
  PassResult out;
  for (const std::vector<Request>& phase : pass.phases) {
    std::vector<Record> records(phase.size());
    std::atomic<std::size_t> cursor{0};
    auto client = [&](int c) {
      Tracer* tracer =
          tracers != nullptr ? &(*tracers)[static_cast<std::size_t>(c)]
                             : nullptr;
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= phase.size()) return;
        const int rid =
            first_rid + static_cast<int>(out.records.size() + i);
        const Scope root(tracer, "request.map", rid);
        const Scope call(tracer, "service.handle_line", rid);
        records[i] = serve(service, phase[i]);
      }
    };
    const double t0 = now_s();
    if (w.clients == 1) {
      client(0);
    } else {
      std::vector<std::thread> threads;
      for (int c = 0; c < w.clients; ++c) threads.emplace_back(client, c);
      for (std::thread& t : threads) t.join();
    }
    out.wall_s += now_s() - t0;
    for (Record& r : records) out.records.push_back(std::move(r));
  }
  read_stats(service, out);
  return out;
}

/// The service worker's cold path (memo and warm off) for one parsed
/// request, one span per public call.
Reply run_worker_steps(const Workload& w, const monomap::ServeRequest& req,
                       int rid, Tracer& tracer) {
  const double t0 = now_s();
  Reply reply;
  std::optional<monomap::Dfg> dfg;
  {
    const Scope s(&tracer, "io.dfg_from_text", rid);
    dfg = monomap::dfg_from_text(req.dfg_text);
  }
  std::optional<monomap::CgraArch> arch;
  {
    const Scope s(&tracer, "arch.CgraArch", rid);
    arch.emplace(req.rows, req.cols, req.topology);
  }
  {
    const Scope s(&tracer, "mapper.fingerprint", rid);
    (void)monomap::fingerprint_dfg(*dfg);
    (void)monomap::fingerprint_arch(*arch);
  }
  monomap::MapResult result;
  {
    const Scope s(&tracer, "mapper.map", rid);
    monomap::DecoupledMapperOptions opts = w.service.mapper;
    opts.anytime = req.anytime;
    const monomap::Deadline deadline(req.deadline_s);
    result = monomap::DecoupledMapper(opts).map(*dfg, *arch, deadline);
    tracer.derived("timing.time_phase", s.index(), result.time_phase_s);
    tracer.derived("space.space_phase", s.index(), result.space_phase_s);
  }
  if (result.success) {
    const Scope s(&tracer, "io.mapping_to_text", rid);
    reply.mapping = monomap::mapping_to_text(*dfg, result.mapping);
  }
  reply.parsed = true;
  reply.outcome = monomap::to_string(result.outcome);
  reply.ii = result.ii;
  reply.mii = result.mii.mii();
  reply.ii_lo = result.ii_lo;
  reply.ii_hi = result.ii_hi;
  reply.schedules_tried = result.schedules_tried;
  Effort e;
  e.time_phase_s = result.time_phase_s;
  e.space_phase_s = result.space_phase_s;
  e.sat_calls = result.time_stats.sat_calls;
  e.instances_built = result.time_stats.instances_built;
  e.horizon_extensions = result.time_stats.horizon_extensions;
  e.nogoods_added = result.time_stats.nogoods_added;
  e.narrow_nogoods = result.time_stats.narrow_nogoods;
  e.space_truncated = result.space_truncated;
  e.space_refuted = result.space_exhausted;
  e.backjumps = result.space_backjumps;
  e.budget_shrinks = result.budget_shrinks;
  e.budget_probes = result.budget_probes;
  e.iis_walked = result.time_stats.final_ii > 0
                     ? result.time_stats.final_ii - result.mii.mii() + 1
                     : 0;
  reply.effort = e;
  reply.seconds = now_s() - t0;
  return reply;
}

/// The service's cold path run step by step: the request is parsed on
/// the client thread, then handed to a one-thread pool and waited for, as
/// handle_line does. `service.dispatch` spans the hand-off and the wait,
/// so its self time is the dispatch and wake-up cost.
Record run_pipeline_request(const Workload& w, const Request& req, int rid,
                            monomap::WorkStealingPool& worker,
                            Tracer& tracer) {
  Record rec;
  rec.request = &req;
  const double t0 = now_s();
  {
    const Scope root(&tracer, "request.map", rid);
    monomap::ParsedRequest parsed;
    {
      const Scope s(&tracer, "service.parse_request", rid);
      parsed = monomap::parse_request(req.line);
    }
    const Scope dispatch(&tracer, "service.dispatch", rid);
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    // The client blocks until the job is done, so the worker appends to
    // the same tracer, under the dispatch span. A throwing step leaves the
    // reply unparsed, which counts the request as failed.
    worker.submit([&] {
      try {
        rec.reply = run_worker_steps(w, parsed.request, rid, tracer);
      } catch (const std::exception&) {
        rec.reply = Reply{};
      }
      {
        const std::lock_guard<std::mutex> lock(m);
        done = true;
      }
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return done; });
  }
  rec.latency_s = now_s() - t0;
  return rec;
}

/// One pass of a cold workload in trace mode: each request goes through
/// handle_line (untraced) and through the traced steps back to back, so
/// the two latencies of a request are measured seconds apart at most. The
/// order alternates, so neither side always runs on caches the other
/// warmed.
std::pair<PassResult, PassResult> run_paired_pass(
    const Workload& w, const Pass& pass, monomap::MappingService& service,
    monomap::WorkStealingPool& worker, Tracer& tracer, int first_rid) {
  PassResult plain;
  PassResult traced;
  for (const std::vector<Request>& phase : pass.phases) {
    for (const Request& req : phase) {
      const int rid = first_rid + static_cast<int>(traced.records.size());
      const bool plain_first = rid % 2 == 0;
      if (plain_first) plain.records.push_back(serve(service, req));
      traced.records.push_back(
          run_pipeline_request(w, req, rid, worker, tracer));
      if (!plain_first) plain.records.push_back(serve(service, req));
      plain.wall_s += plain.records.back().latency_s;
      traced.wall_s += traced.records.back().latency_s;
    }
  }
  read_stats(service, plain);
  return {std::move(plain), std::move(traced)};
}

/// Calls the request path makes inside the service (invisible from the
/// client) or inside the mapper, replayed on the same input after the pass
/// so their cost per call is measured where the work happens.
void replay_calls(const Record& rec, int rid, bool service_path,
                  const monomap::DecoupledMapperOptions& mapper,
                  Tracer& tracer) {
  const Request& req = *rec.request;
  const Scope root(&tracer, "replay.request", rid);
  monomap::Dfg dfg = monomap::dfg_from_text(req.dfg_text);
  const monomap::CgraArch arch(req.rows, req.cols);
  if (service_path) {
    {
      const Scope s(&tracer, "service.parse_request", rid);
      (void)monomap::parse_request(req.line);
    }
    {
      const Scope s(&tracer, "io.dfg_from_text", rid);
      dfg = monomap::dfg_from_text(req.dfg_text);
    }
    {
      const Scope s(&tracer, "arch.CgraArch", rid);
      const monomap::CgraArch built(req.rows, req.cols);
      (void)built;
    }
    {
      const Scope s(&tracer, "mapper.fingerprint", rid);
      (void)monomap::fingerprint_dfg(dfg);
      (void)monomap::fingerprint_arch(arch);
    }
  }
  {
    const Scope s(&tracer, "sched.compute_mii", rid);
    (void)monomap::compute_mii(dfg, arch);
  }
  if (rec.reply.outcome != "feasible" || rec.reply.mapping.empty()) return;
  const monomap::Mapping m =
      monomap::mapping_from_text(rec.reply.mapping, dfg.num_nodes());
  if (service_path) {
    const Scope s(&tracer, "io.mapping_to_text", rid);
    (void)monomap::mapping_to_text(dfg, m);
  }
  std::vector<int> labels(static_cast<std::size_t>(dfg.num_nodes()));
  for (monomap::NodeId v = 0; v < dfg.num_nodes(); ++v) {
    labels[static_cast<std::size_t>(v)] = m.slot(v);
  }
  const Scope s(&tracer, "space.find_monomorphism", rid);
  (void)monomap::find_monomorphism(dfg, arch, labels, m.ii(), mapper.space);
}

// ---------------------------------------------------------------- gate

/// The correctness gate: every feasible reply's mapping is re-parsed,
/// validated, checked against the mII the benchmark computed itself and,
/// for suite kernels, simulated against the sequential interpreter.
class Gate {
 public:
  /// Returns false (and records why) when the reply's mapping is invalid.
  bool check(const Record& rec, Tracer* tracer, int rid) {
    const Request& req = *rec.request;
    const Reply& r = rec.reply;
    if (r.outcome != "feasible") return true;
    ++mappings_;
    // A memo hit returns the same text again: check each pair once.
    const std::size_t key = std::hash<std::string>{}(req.line) ^
                            (std::hash<std::string>{}(r.mapping) << 1);
    auto [it, fresh] = valid_.try_emplace(key, true);
    if (fresh) {
      std::string why;
      try {
        why = problems(req, r, tracer, rid);
      } catch (const std::exception& e) {
        why = std::string("exception: ") + e.what();
      }
      it->second = why.empty();
      if (!why.empty() && errors_.size() < 20) {
        errors_.push_back(req.problem + ": " + why);
      }
    }
    if (!it->second) ++invalid_;
    return it->second;
  }
  [[nodiscard]] int mappings() const { return mappings_; }
  [[nodiscard]] int invalid() const { return invalid_; }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

 private:
  std::string problems(const Request& req, const Reply& r, Tracer* tracer,
                       int rid) {
    if (r.mapping.empty()) return "feasible reply without a mapping";
    const monomap::Dfg dfg = monomap::dfg_from_text(req.dfg_text);
    const monomap::CgraArch& arch = arch_for(req.rows, req.cols);
    const monomap::Mapping m =
        monomap::mapping_from_text(r.mapping, dfg.num_nodes());
    if (m.ii() != r.ii) return "mapping ii differs from the reply's ii";
    if (r.ii < r.mii || r.ii < req.mii) return "ii below mII";
    if (r.ii_lo > r.ii) return "ii_lo above ii";
    {
      const Scope s(tracer, "mapper.validate_mapping", rid);
      const auto violations = monomap::validate_mapping(dfg, arch, m);
      if (!violations.empty()) return violations.front().what;
    }
    if (req.bench_index < 0) return "";
    const monomap::Benchmark& bench =
        monomap::benchmark_suite()[static_cast<std::size_t>(req.bench_index)];
    std::vector<int> time(static_cast<std::size_t>(dfg.num_nodes()));
    std::vector<monomap::PeId> pe(time.size());
    for (std::size_t v = 0; v < time.size(); ++v) {
      const monomap::NodeId sent =
          req.perm.empty() ? static_cast<monomap::NodeId>(v) : req.perm[v];
      time[v] = m.time(sent);
      pe[v] = m.pe(sent);
    }
    const monomap::Mapping original(m.ii(), std::move(time), std::move(pe));
    monomap::SimOptions sim;
    sim.iterations = std::max(sim.iterations, original.num_stages() + 2);
    const Scope s(tracer, "sim.verify_mapping_by_simulation", rid);
    const auto diffs = monomap::verify_mapping_by_simulation(
        bench.kernel, bench.dfg, arch, original, sim);
    return diffs.empty() ? "" : "simulation: " + diffs.front();
  }

  const monomap::CgraArch& arch_for(int rows, int cols) {
    auto& slot = archs_[{rows, cols}];
    if (!slot) slot = std::make_unique<monomap::CgraArch>(rows, cols);
    return *slot;
  }

  std::map<std::pair<int, int>, std::unique_ptr<monomap::CgraArch>> archs_;
  std::unordered_map<std::size_t, bool> valid_;
  int mappings_ = 0;
  int invalid_ = 0;
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------- report

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return raw(key, buf);
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + monomap::json::escape(v) + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + std::string("\"") +
             monomap::json::escape(key) + "\":" + v;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Memo hits whose answer fields differ from the first cold answer to the
/// same problem within one service lifetime (one pass).
int memo_field_mismatches(const std::vector<PassResult>& passes) {
  int mismatches = 0;
  for (const PassResult& p : passes) {
    std::map<std::string, AnswerFields> cold;
    for (const Record& rec : p.records) {
      const Reply& r = rec.reply;
      if (r.outcome != "feasible" || rec.request->bypass_memo) continue;
      const AnswerFields f{r.ii, r.mii, r.ii_lo, r.ii_hi};
      if (!r.memo_hit) {
        cold.emplace(rec.request->problem, f);
      } else {
        auto it = cold.find(rec.request->problem);
        if (it != cold.end() && !(it->second == f)) ++mismatches;
      }
    }
  }
  return mismatches;
}

/// End-to-end metrics over the records of the given passes.
void add_end_to_end(const std::vector<PassResult>& passes, Gate& gate,
                    JsonObject& out, int* attempted, int* failed) {
  std::vector<double> latencies;
  double wall = 0.0;
  int decided = 0;
  int proven = 0;
  int broken = 0;
  double log_ratio = 0.0;
  for (const PassResult& p : passes) {
    wall += p.wall_s;
    for (const Record& rec : p.records) {
      latencies.push_back(rec.latency_s * 1e3);
      const Reply& r = rec.reply;
      if (!r.parsed || r.outcome.empty()) {
        ++broken;
        continue;
      }
      if (r.outcome != "feasible" || !gate.check(rec, nullptr, -1)) {
        continue;
      }
      ++decided;
      if (r.ii_lo == r.ii) ++proven;
      log_ratio += std::log(static_cast<double>(r.ii) /
                            static_cast<double>(rec.request->mii));
    }
  }
  const int n = static_cast<int>(latencies.size());
  std::sort(latencies.begin(), latencies.end());
  // The highest percentile with at least ten samples beyond it.
  const int tail_index = std::max(0, n - 11);
  const double tail_pct =
      n > 10 ? 100.0 * static_cast<double>(n - 10) / n : 100.0;
  out.num("latency_ms.p50", median(latencies))
      .num("latency_ms.tail", n > 0 ? latencies[tail_index] : 0.0)
      .num("latency_ms.tail_percentile", tail_pct)
      .num("latency_ms.tail_beyond", n > 10 ? 10 : 0)
      .num("samples", n)
      .num("requests_per_s", wall > 0 ? n / wall : 0.0)
      .num("decided_share", n > 0 ? static_cast<double>(decided) / n : 0.0)
      .num("ii_ratio.geomean",
           decided > 0 ? std::exp(log_ratio / decided) : 0.0)
      .num("proven_optimal_share",
           decided > 0 ? static_cast<double>(proven) / decided : 0.0)
      .num("invalid_share",
           gate.mappings() > 0
               ? static_cast<double>(gate.invalid()) / gate.mappings()
               : 0.0)
      .num("mappings_checked", gate.mappings())
      .num("broken", broken)
      .num("peak_rss_mb", peak_rss_mb())
      .num("memo_field_mismatches", memo_field_mismatches(passes));
  *attempted += n;
  *failed += broken + gate.invalid();
}

std::string effort_json(const PassResult& p) {
  std::string out = "[";
  for (std::size_t i = 0; i < p.records.size(); ++i) {
    const Record& rec = p.records[i];
    const Reply& r = rec.reply;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s[\"%s\",\"%s\",%d,%d,%d,%d]",
                  i == 0 ? "" : ",",
                  monomap::json::escape(rec.request->problem).c_str(),
                  r.outcome.c_str(), r.ii, r.schedules_tried,
                  r.effort ? r.effort->space_truncated : -1,
                  r.effort ? r.effort->sat_calls : -1);
    out += buf;
  }
  return out + "]";
}

/// Per-layer metrics from the traced passes' spans and effort, and the
/// untraced passes' service counters.
void add_layers(const std::vector<PassResult>& untraced,
                const std::vector<PassResult>& traced,
                const std::vector<Span>& spans, JsonObject& out) {
  std::map<std::string, std::vector<double>> by_name;
  std::vector<double> child_time(spans.size(), 0.0);
  for (const Span& s : spans) {
    by_name[s.name].push_back(s.end - s.start);
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  auto mean_of = [&](const std::string& name, double scale) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : mean(it->second) * scale;
  };
  // Self time per layer, over the spans under request roots only (replay
  // and gate spans are measurement, not request work).
  std::vector<int> root_of(spans.size(), -1);
  std::map<std::string, double> self_s;
  double request_s = 0.0;
  double covered_s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    root_of[i] = s.parent < 0 ? static_cast<int>(i)
                              : root_of[static_cast<std::size_t>(s.parent)];
    const Span& root = spans[static_cast<std::size_t>(root_of[i])];
    if (root.name != "request.map") continue;
    const double self = (s.end - s.start) - child_time[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self_s[layer] += self;
    if (s.parent < 0) {
      request_s += s.end - s.start;
      covered_s += child_time[i];
    }
  }
  const double n_traced = std::max<std::size_t>(1, traced.size());

  std::vector<double> queue_wait_ms;
  double rejected = 0, memo_hits = 0, warm = 0, certs = 0, memo_invalid = 0;
  double requests = 0;
  std::vector<double> untraced_lat, traced_lat;
  double untraced_s = 0.0;
  for (const PassResult& p : untraced) {
    rejected += p.rejected;
    memo_hits += p.memo_hits;
    warm += p.warm_starts;
    certs += p.certs_seeded;
    memo_invalid += p.memo_invalid;
    for (const Record& rec : p.records) {
      ++requests;
      untraced_lat.push_back(rec.latency_s * 1e3);
      untraced_s += rec.latency_s;
      queue_wait_ms.push_back((rec.latency_s - rec.reply.seconds) * 1e3);
    }
  }
  const double n_untraced = std::max<std::size_t>(1, untraced.size());

  Effort sum;
  int placed = 0;
  int searches = 0;
  for (const PassResult& p : traced) {
    for (const Record& rec : p.records) {
      traced_lat.push_back(rec.latency_s * 1e3);
      if (!rec.reply.effort) continue;
      const Effort& e = *rec.reply.effort;
      sum.time_phase_s += e.time_phase_s;
      sum.space_phase_s += e.space_phase_s;
      sum.sat_calls += e.sat_calls;
      sum.instances_built += e.instances_built;
      sum.horizon_extensions += e.horizon_extensions;
      sum.nogoods_added += e.nogoods_added;
      sum.narrow_nogoods += e.narrow_nogoods;
      sum.space_truncated += e.space_truncated;
      sum.space_refuted += e.space_refuted;
      sum.backjumps += e.backjumps;
      sum.budget_shrinks += e.budget_shrinks;
      sum.budget_probes += e.budget_probes;
      sum.iis_walked += e.iis_walked;
      searches += rec.reply.schedules_tried;
      if (rec.reply.outcome == "feasible") ++placed;
    }
  }
  const double per_pass = 1.0 / n_traced;
  out.num("service.parse_us", mean_of("service.parse_request", 1e6))
      .num("service.queue_wait_ms", median(queue_wait_ms))
      .num("service.rejected", rejected / n_untraced)
      .num("service.memo_field_mismatches",
           memo_field_mismatches(untraced) / n_untraced)
      .num("io.dfg_parse_us", mean_of("io.dfg_from_text", 1e6))
      .num("io.serialize_us", mean_of("io.mapping_to_text", 1e6))
      .num("mapper.fingerprint_us", mean_of("mapper.fingerprint", 1e6))
      .num("mapper.memo_hit_share", requests > 0 ? memo_hits / requests : 0)
      .num("mapper.memo_invalid", memo_invalid / n_untraced)
      .num("mapper.warm_starts", warm / n_untraced)
      .num("mapper.certs_seeded", certs / n_untraced)
      .num("mapper.iis_walked", sum.iis_walked * per_pass)
      .num("mapper.budget_shrinks", sum.budget_shrinks * per_pass)
      .num("mapper.budget_probes", sum.budget_probes * per_pass)
      .num("mapper.validate_us", mean_of("mapper.validate_mapping", 1e6))
      .num("arch.build_ms", mean_of("arch.CgraArch", 1e3))
      .num("sched.mii_us", mean_of("sched.compute_mii", 1e6))
      .num("timing.time_phase_s", sum.time_phase_s * per_pass)
      .num("timing.share", request_s > 0 ? sum.time_phase_s / request_s : 0)
      .num("timing.sat_calls", sum.sat_calls * per_pass)
      .num("timing.instances_built", sum.instances_built * per_pass)
      .num("timing.horizon_extensions", sum.horizon_extensions * per_pass)
      .num("timing.nogoods_added", sum.nogoods_added * per_pass)
      .num("timing.narrow_nogoods", sum.narrow_nogoods * per_pass)
      .num("space.space_phase_s", sum.space_phase_s * per_pass)
      .num("space.share", request_s > 0 ? sum.space_phase_s / request_s : 0)
      .num("space.searches", searches * per_pass)
      .num("space.placed", placed * per_pass)
      .num("space.refuted", sum.space_refuted * per_pass)
      .num("space.truncated", sum.space_truncated * per_pass)
      .num("space.useful_ratio",
           searches > 0 ? (placed + sum.space_refuted) /
                              static_cast<double>(searches)
                        : 0)
      .num("space.backjumps", static_cast<double>(sum.backjumps) * per_pass)
      .num("space.place_ms", mean_of("space.find_monomorphism", 1e3));
  for (const char* layer :
       {"request", "service", "io", "arch", "mapper", "timing", "space"}) {
    out.num(std::string("self_ms.") + layer, self_s[layer] * 1e3 * per_pass);
  }
  // Coverage compares the traced layer time with the untraced handle_line
  // latency of the same requests, so time the steps miss (dispatch, reply
  // building) or add (tracing) shows as a departure from 1.
  out.num("trace.coverage",
          untraced_s > 0 ? (covered_s / n_traced) / (untraced_s / n_untraced)
                         : 0)
      .num("trace.overhead_ms", median(traced_lat) - median(untraced_lat))
      .num("trace.spans", static_cast<double>(spans.size()));
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  for (const Span& s : spans) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  ",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"request\":%d",
                  s.start, s.end, s.parent, s.request);
    f << "{\"name\":\"" << s.name << "\"" << buf
      << (s.derived ? ",\"derived\":true" : "") << "}\n";
  }
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else if (flag == "--setup-only") {
      a.setup_only = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

int run(const Args& args) {
  // Set-up: input generation (which builds the suite) and construction of
  // the service the first pass uses. A traced run does each cold request
  // twice, so it replays half as many passes (at least two).
  const Workload w = make_workload(
      args.workload, args.seed, args.trace ? args.seconds / 2 : args.seconds,
      args.trace ? 2 : 1);
  auto service = std::make_unique<monomap::MappingService>(w.service);
  // The launcher subtracts its own clock reading taken before it started
  // this process: set-up is measured from process start.
  const double ready_s = std::chrono::duration<double>(
                             Clock::now().time_since_epoch())
                             .count();
  if (args.setup_only) {
    std::printf("%s\n", JsonObject().num("ready_s", ready_s).text().c_str());
    return 0;
  }

  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::vector<Tracer> tracers(static_cast<std::size_t>(w.clients));
  Tracer replay_tracer;
  std::unordered_set<std::size_t> replayed;
  Gate gate;
  const bool pipeline = !w.service.memo && !w.service.warm;
  std::optional<monomap::WorkStealingPool> worker;
  if (args.trace && pipeline) worker.emplace(1);
  const int passes = static_cast<int>(w.passes.size());
  int next_rid = 0;
  for (int p = 0; p < passes; ++p) {
    // Every pass gets a fresh service (a cold memo and knowledge store).
    if (p > 0) service = std::make_unique<monomap::MappingService>(w.service);
    // serve-mix traces every other pass, through handle_line.
    const bool traced_pass = args.trace && (pipeline || p % 2 == 1);
    PassResult result;
    if (!args.trace) {
      result = run_service_pass(w, w.passes[p], *service, nullptr, 0);
    } else if (pipeline) {
      auto [plain, steps] = run_paired_pass(w, w.passes[p], *service, *worker,
                                            tracers[0], next_rid);
      untraced.push_back(std::move(plain));
      result = std::move(steps);
    } else {
      result = run_service_pass(w, w.passes[p], *service,
                                traced_pass ? &tracers : nullptr, next_rid);
    }
    if (traced_pass) {
      for (std::size_t i = 0; i < result.records.size(); ++i) {
        const int rid = next_rid + static_cast<int>(i);
        // Repeated lines replay once: a memo hit re-serves the same walk.
        const Record& rec = result.records[i];
        if (gate.check(rec, &replay_tracer, rid) &&
            replayed.insert(std::hash<std::string>{}(rec.request->line))
                .second) {
          replay_calls(rec, rid, !pipeline, w.service.mapper, replay_tracer);
        }
      }
      next_rid += static_cast<int>(result.records.size());
      traced.push_back(std::move(result));
    } else {
      untraced.push_back(std::move(result));
    }
  }

  Tracer all;
  for (const Tracer& t : tracers) all.append(t);
  all.append(replay_tracer);

  int attempted = 0;
  int failed = 0;
  JsonObject e2e;
  add_end_to_end(untraced, gate, e2e, &attempted, &failed);
  for (const PassResult& p : traced) {
    attempted += static_cast<int>(p.records.size());
    for (const Record& rec : p.records) {
      if (!rec.reply.parsed || rec.reply.outcome.empty()) ++failed;
    }
  }
  JsonObject layers;
  if (args.trace) {
    add_layers(untraced, traced, all.spans(), layers);
    if (!args.spans_path.empty()) write_spans(args.spans_path, all.spans());
  }

  std::string errors = "[";
  for (std::size_t i = 0; i < gate.errors().size(); ++i) {
    errors += (i == 0 ? "\"" : ",\"") +
              monomap::json::escape(gate.errors()[i]) + "\"";
  }
  errors += "]";
  std::string effort = "[";
  for (std::size_t i = 0; i < untraced.size() + traced.size(); ++i) {
    const bool t = i >= untraced.size();
    const PassResult& p = t ? traced[i - untraced.size()] : untraced[i];
    effort += std::string(i == 0 ? "" : ",") + "{\"traced\":" +
              (t ? "true" : "false") + ",\"requests\":" + effort_json(p) + "}";
  }
  effort += "]";

  auto walls = [](const std::vector<PassResult>& passes) {
    std::string out = "[";
    for (const PassResult& p : passes) {
      if (out.size() > 1) out += ',';
      out += std::to_string(p.wall_s);
    }
    return out + "]";
  };

  JsonObject env;
  env.num("nproc", std::thread::hardware_concurrency())
      .str("simd", monomap::simd::level_name(monomap::simd::active_level()))
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", __VERSION__);
  JsonObject report;
  report.str("workload", w.name)
      .num("seed", static_cast<double>(args.seed))
      .num("ready_s", ready_s)
      .num("trace", args.trace ? 1 : 0)
      .num("passes", passes)
      .num("clients", w.clients)
      .num("workers", w.service.threads)
      .raw("env", env.text())
      .raw("end_to_end", e2e.text())
      .raw("layers", layers.text())
      .raw("pass_walls_s", walls(untraced))
      .raw("traced_pass_walls_s", walls(traced))
      .raw("errors", errors)
      .raw("effort", effort)
      .num("attempted", attempted)
      .num("failed", failed)
      .raw("correct", failed == 0 ? "true" : "false");
  std::printf("%s\n", report.text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_replay: %s\n", e.what());
    return 2;
  }
}
