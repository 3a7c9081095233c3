#include "service/service.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <utility>

#include "io/dfg_io.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/json.hpp"
#include "support/outcome.hpp"
#include "support/stopwatch.hpp"
#include "workloads/suite.hpp"

namespace monomap {
namespace {

constexpr std::size_t kLatencyWindow = 4096;

std::string num_field(const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6f", key, v);
  return buf;
}

std::string int_field(const char* key, long long v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%lld", key, v);
  return buf;
}

std::string error_response(const std::string& id, const std::string& what) {
  return "{\"id\":\"" + json::escape(id) + "\",\"ok\":false,\"error\":\"" +
         json::escape(what) + "\"}";
}

}  // namespace

MappingService::MappingService() : MappingService(Options{}) {}

MappingService::MappingService(Options options)
    : options_(std::move(options)),
      store_(KnowledgeStore::Options{options_.store_budget_mb,
                                     options_.max_memo_entries}),
      latencies_s_(kLatencyWindow, 0.0) {
  pool_ = std::make_unique<WorkStealingPool>(std::max(1, options_.threads));
}

MappingService::~MappingService() {
  // Drain in-flight jobs before the pool (and the store they use) die.
  (void)pool_->wait_idle_collect();
}

void MappingService::record_latency(double seconds) {
  const std::lock_guard<std::mutex> lock(latency_m_);
  latencies_s_[latency_next_] = seconds;
  latency_next_ = (latency_next_ + 1) % kLatencyWindow;
  latency_count_ = std::min(latency_count_ + 1, kLatencyWindow);
}

std::string MappingService::handle_line(const std::string& line) {
  ParsedRequest parsed = parse_request(line);
  if (!parsed.ok) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(parsed.request.id, parsed.error);
  }
  const ServeRequest& req = parsed.request;
  switch (req.verb) {
    case ServeRequest::Verb::kStats:
      return render_stats(req.id);
    case ServeRequest::Verb::kShutdown:
      shutdown_.store(true, std::memory_order_release);
      return "{\"id\":\"" + json::escape(req.id) +
             "\",\"ok\":true,\"verb\":\"shutdown\"}";
    case ServeRequest::Verb::kMap:
      return handle_map(req);
  }
  return error_response(req.id, "unreachable verb");
}

std::string MappingService::handle_map(const ServeRequest& req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Stopwatch watch;
  // Admission control: bound queued + running map requests. An overloaded
  // service answers NOW with the outcome an expired deadline would have
  // produced — the client's retry policy treats both the same — instead of
  // queueing into a latency cliff.
  const int limit = options_.queue_limit;
  if (limit > 0 &&
      in_flight_.fetch_add(1, std::memory_order_acq_rel) >= limit) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    record_latency(watch.elapsed_s());
    return "{\"id\":\"" + json::escape(req.id) +
           "\",\"ok\":false,\"outcome\":\"" +
           to_string(MapOutcome::kDeadline) +
           "\"," + int_field("exit_code", exit_code(MapOutcome::kDeadline)) +
           ",\"causes\":\"admission: queue full\",\"error\":\"admission "
           "queue full\"}";
  }
  if (limit <= 0) {
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
  }

  struct Job {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::string response;
  };
  auto job = std::make_shared<Job>();
  pool_->submit([this, job, req] {
    std::string response;
    try {
      response = run_map_job(req);
    } catch (const std::exception& e) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      response = error_response(req.id, e.what());
    } catch (...) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      response = error_response(req.id, "unknown worker failure");
    }
    {
      const std::lock_guard<std::mutex> lock(job->m);
      job->response = std::move(response);
      job->done = true;
    }
    job->cv.notify_all();
  });
  std::string response;
  {
    std::unique_lock<std::mutex> lock(job->m);
    job->cv.wait(lock, [&job] { return job->done; });
    response = std::move(job->response);
  }
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  record_latency(watch.elapsed_s());
  return response;
}

std::string MappingService::run_map_job(const ServeRequest& req) {
  Stopwatch watch;
  // The daemon-path fault site: fires before any real work so the ASan
  // sweep proves a failed request becomes a classified outcome on the
  // wire with the server still up.
  try {
    fault::maybe_inject("serve.request");
  } catch (const fault::FaultInjectedError& e) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    return "{\"id\":\"" + json::escape(req.id) +
           "\",\"ok\":false,\"outcome\":\"" +
           to_string(MapOutcome::kFault) + "\"," +
           int_field("exit_code", exit_code(MapOutcome::kFault)) +
           ",\"causes\":\"" + json::escape(e.site()) +
           ": injected fault\",\"error\":\"" + json::escape(e.what()) + "\"}";
  }

  // Materialise the problem. Malformed DFG text / unknown bench names
  // surface as AssertionError from the loaders — protocol errors, not
  // crashes.
  std::optional<Dfg> dfg;
  try {
    if (!req.bench.empty()) {
      dfg = benchmark_by_name(req.bench).dfg;
    } else {
      dfg = dfg_from_text(req.dfg_text);
    }
  } catch (const AssertionError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(req.id, std::string("bad request: ") + e.what());
  }
  const CgraArch arch(req.rows, req.cols, req.topology);

  DecoupledMapperOptions opts = options_.mapper;
  opts.anytime = req.anytime;
  if (req.max_schedules > 0) opts.max_schedules = req.max_schedules;
  if (req.max_ii > 0) opts.time.max_ii = req.max_ii;
  const bool use_memo = req.memo == -1 ? options_.memo : req.memo != 0;
  const bool use_warm = req.warm == -1 ? options_.warm : req.warm != 0;
  const double deadline_s =
      req.deadline_s > 0.0 ? req.deadline_s : options_.default_deadline_s;

  const DfgFingerprint fp = fingerprint_dfg(*dfg);
  const std::uint64_t arch_fp = fingerprint_arch(arch);
  // Warm and cold walks may legitimately settle on different (equally
  // valid) answers, so they never share a memo slot.
  const std::uint64_t mode_salt = use_warm ? 0xbadc0ffee0ddf00dULL : 0;

  bool memo_hit = false;
  std::size_t seeded = 0;
  int floor = 0;
  MapResult result;
  std::optional<MapResult> cached;
  if (use_memo) {
    cached = store_.lookup(*dfg, arch, fp, arch_fp, opts, mode_salt);
  }
  if (cached.has_value()) {
    memo_hit = true;
    result = std::move(*cached);
  } else if (use_warm) {
    CrossIiNogoodStore scratch;
    floor = store_.refuted_floor(fp, arch_fp, opts);
    seeded = store_.seed(fp, arch_fp, opts, &scratch);
    if (seeded > 0 || floor > 0) {
      warm_starts_.fetch_add(1, std::memory_order_relaxed);
    }
    const Deadline deadline(deadline_s);
    result = DecoupledMapper(opts).map_warm(*dfg, arch, deadline, &scratch,
                                            floor);
    store_.publish(fp, arch_fp, opts, scratch, result.ii_refuted_up_to);
    if (use_memo) {
      store_.store(*dfg, fp, arch_fp, opts, result, mode_salt);
    }
  } else {
    const Deadline deadline(deadline_s);
    result = DecoupledMapper(opts).map(*dfg, arch, deadline);
    if (use_memo) {
      store_.store(*dfg, fp, arch_fp, opts, result, mode_salt);
    }
  }
  if (result.outcome == MapOutcome::kFault) {
    faults_.fetch_add(1, std::memory_order_relaxed);
  }

  std::string out = "{\"id\":\"" + json::escape(req.id) + "\",\"ok\":" +
                    (result.success ? "true" : "false") + ",\"outcome\":\"" +
                    to_string(result.outcome) + "\"," +
                    int_field("exit_code", exit_code(result.outcome)) + "," +
                    int_field("ii", result.ii) + "," +
                    int_field("mii", result.mii.mii()) + "," +
                    int_field("ii_lo", result.ii_lo) + "," +
                    int_field("ii_hi", result.ii_hi) + "," +
                    int_field("schedules_tried", result.schedules_tried) +
                    "," +
                    int_field("nogoods_lifted_cross_ii",
                              result.nogoods_lifted_cross_ii) +
                    "," +
                    int_field("speculative_hits", result.speculative_hits) +
                    ",\"degraded\":" +
                    (result.outcome == MapOutcome::kDegraded ? "true"
                                                             : "false") +
                    ",\"memo_hit\":" + (memo_hit ? "true" : "false") +
                    ",\"warm\":" + (use_warm ? "true" : "false") + "," +
                    int_field("certs_seeded",
                              static_cast<long long>(seeded)) +
                    "," + int_field("floor", floor) + "," +
                    num_field("seconds", watch.elapsed_s());
  if (!result.causes.empty()) {
    out += ",\"causes\":\"" + json::escape(format_causes(result.causes)) +
           "\"";
  }
  if (!result.success && !result.failure_reason.empty()) {
    out += ",\"error\":\"" + json::escape(result.failure_reason) + "\"";
  }
  if (req.want_mapping && result.success) {
    out += ",\"mapping\":\"" +
           json::escape(mapping_to_text(*dfg, result.mapping)) + "\"";
  }
  out += "}";
  return out;
}

std::string MappingService::render_stats(const std::string& id) const {
  const StatsSnapshot s = stats();
  std::string out = "{\"id\":\"" + json::escape(id) +
                    "\",\"ok\":true,\"verb\":\"stats\"," +
                    int_field("requests", static_cast<long long>(s.requests)) +
                    "," +
                    int_field("rejected", static_cast<long long>(s.rejected)) +
                    "," +
                    int_field("errors", static_cast<long long>(s.errors)) +
                    "," +
                    int_field("faults", static_cast<long long>(s.faults)) +
                    "," +
                    int_field("warm_starts",
                              static_cast<long long>(s.warm_starts)) +
                    "," + num_field("p50_ms", s.p50_ms) + "," +
                    num_field("p99_ms", s.p99_ms) + "," +
                    int_field("memo_hits",
                              static_cast<long long>(s.store.memo_hits)) +
                    "," +
                    int_field("memo_misses",
                              static_cast<long long>(s.store.memo_misses)) +
                    "," +
                    int_field("memo_stores",
                              static_cast<long long>(s.store.memo_stores)) +
                    "," +
                    int_field("memo_evictions",
                              static_cast<long long>(s.store.memo_evictions)) +
                    "," +
                    int_field("certs_seeded",
                              static_cast<long long>(s.store.certs_seeded)) +
                    "," +
                    int_field(
                        "certs_published",
                        static_cast<long long>(s.store.certs_published)) +
                    "," +
                    int_field("floor_hits",
                              static_cast<long long>(s.store.floor_hits)) +
                    "," +
                    int_field("mem_bytes",
                              static_cast<long long>(s.store.bytes_used)) +
                    "," +
                    int_field("mem_peak_bytes",
                              static_cast<long long>(s.store.bytes_peak)) +
                    "," + int_field("threads", pool_->num_threads()) + "," +
                    int_field("queue_limit", options_.queue_limit) + "}";
  return out;
}

MappingService::StatsSnapshot MappingService::stats() const {
  StatsSnapshot s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.faults = faults_.load(std::memory_order_relaxed);
  s.warm_starts = warm_starts_.load(std::memory_order_relaxed);
  std::vector<double> window;
  {
    const std::lock_guard<std::mutex> lock(latency_m_);
    window.assign(latencies_s_.begin(),
                  latencies_s_.begin() +
                      static_cast<std::ptrdiff_t>(latency_count_));
  }
  if (!window.empty()) {
    std::sort(window.begin(), window.end());
    const auto pick = [&window](double q) {
      const std::size_t idx = std::min(
          window.size() - 1,
          static_cast<std::size_t>(q * static_cast<double>(window.size())));
      return window[idx] * 1000.0;
    };
    s.p50_ms = pick(0.50);
    s.p99_ms = pick(0.99);
  }
  s.store = store_.stats();
  return s;
}

}  // namespace monomap
