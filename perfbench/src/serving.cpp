// The serving workload, multiturn, against a deployment of
// net::HttpServer over serve::InferenceEngine in this process, driven over
// loopback by the benchmark's own client.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <thread>

#include "client.h"
#include "common/error.h"
#include "common/rng.h"
#include "host.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "nn/gpt.h"
#include "serve/engine.h"
#include "serve/trace.h"
#include "trace.h"

namespace perfbench {

using matgpt::Rng;
using matgpt::Tape;
using matgpt::Var;
using matgpt::net::Json;
namespace nn = matgpt::nn;
namespace serve = matgpt::serve;
namespace net = matgpt::net;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Warm-up requests use their own id range so they never meet workload ids.
constexpr std::uint64_t kWarmupIdBase = 1ULL << 40;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return matgpt::splitmix64(s);
}

/// The serving-shaped model of matgpt_cli's serving_model_config(): LLaMA,
/// vocab 8192, hidden 256, 4 layers, 8 heads over 2 KV heads, fixed-seed
/// random init. max_seq is raised so multiturn histories fit.
nn::GptConfig serving_model_config() {
  nn::GptConfig mc;
  mc.arch = nn::ArchFamily::kLLaMA;
  mc.vocab_size = 8192;
  mc.hidden = 256;
  mc.n_layers = 4;
  mc.n_heads = 8;
  mc.n_kv_heads = 2;
  mc.max_seq = kMaxSeq;
  return mc;
}

/// HttpServer + InferenceEngine in this process. Untraced, the engine runs
/// its own worker (start()); traced, a benchmark-owned thread calls step()
/// and records one span per step and one per idle wait.
class Deployment {
 public:
  explicit Deployment(Lane* step_lane) : step_lane_(step_lane) {
    model_ = std::make_unique<nn::GptModel>(serving_model_config());
    const nn::GptConfig& mc = model_->config();
    serve::EngineConfig ec;
    ec.max_batch = kMaxBatch;
    ec.kv_slots = kKvSlots;
    ec.paged_kv = true;
    ec.scheduler = serve::sched::Policy::kFcfs;
    ec.prefix_cache_bytes = kPrefixCacheBytes;
    // Host tier sized to hold every parked multiturn session at full
    // length (fp32 accounting), twice over; no disk tier.
    const double session_bytes = static_cast<double>(
        kMaxSeq * mc.n_layers * 2 * mc.kv_heads() * mc.head_dim() * 4);
    ec.kv_tier.host_tier_bytes = static_cast<std::size_t>(
        2.0 * session_bytes * static_cast<double>(kSessionsPerUser) *
        static_cast<double>(read_host().nproc));
    ec.kv_tier.disk_tier_bytes = 0;
    engine_ = std::make_unique<serve::InferenceEngine>(*model_, ec);
    server_ = std::make_unique<net::HttpServer>(*engine_);
    if (step_lane_ == nullptr) {
      engine_->start();
    } else {
      stepper_ = std::thread([this] { step_loop(); });
    }
    server_->start();
  }

  ~Deployment() { stop(); }

  /// Stop serving: server, then the step thread, then the engine. The
  /// model stays alive for the replays. Idempotent.
  void stop() {
    server_->stop();
    if (stepper_.joinable()) {
      stop_.store(true);
      stepper_.join();
    }
    engine_->drain();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Traced deployments record step spans only after this is called, so
  /// the warm-up stays out of the trace.
  void start_recording() { recording_.store(true, std::memory_order_release); }

  std::uint16_t port() const { return server_->port(); }
  const nn::GptModel& model() const { return *model_; }

 private:
  void step_loop() {
    std::uint64_t step_no = 0;
    bool idle = false;
    while (!stop_.load(std::memory_order_relaxed)) {
      const auto t0 = Clock::now();
      const std::size_t advanced = engine_->step();
      if (!recording_.load(std::memory_order_acquire)) {
        if (advanced == 0) std::this_thread::sleep_for(kIdleWait);
        continue;
      }
      if (advanced > 0) {
        step_lane_->add("serve", "serve.step", t0, Clock::now(), ++step_no,
                        "seqs", static_cast<double>(advanced));
        idle = false;
        continue;
      }
      std::this_thread::sleep_for(kIdleWait);
      if (idle) {
        step_lane_->extend_last(Clock::now());
      } else {
        step_lane_->add("serve", "serve.idle", t0, Clock::now());
        idle = true;
      }
    }
  }

  static constexpr auto kIdleWait = std::chrono::microseconds(50);

  Lane* step_lane_;
  std::atomic<bool> recording_{false};
  std::unique_ptr<nn::GptModel> model_;
  std::unique_ptr<serve::InferenceEngine> engine_;
  std::unique_ptr<net::HttpServer> server_;
  std::atomic<bool> stop_{false};
  std::thread stepper_;  // after every member it reads
};

/// One generation request as the client saw it.
struct Record {
  std::uint64_t id = 0;
  Clock::time_point sent;
  Clock::time_point done;
  std::int64_t prompt_len = 0;  // tokens prefilled by this request
  std::int64_t context0 = 0;    // tokens in the sequence before decoding
  std::int64_t expected = 0;    // max_new_tokens
  bool ok = false;              // 200, engine "ok", expected token count
  bool mismatch = false;        // checked against the reference and differed
  std::vector<std::int32_t> tokens;
  std::vector<Clock::time_point> token_times;
  double engine_ttft_ms = -1.0;
};

void absorb(Record& r, Exchange& ex) {
  r.sent = ex.sent;
  r.done = ex.done;
  r.tokens = std::move(ex.tokens);
  r.token_times = std::move(ex.token_times);
  r.engine_ttft_ms = ex.engine_ttft_ms;
  r.ok = !ex.transport_error && ex.status == 200 && ex.engine_status == "ok" &&
         static_cast<std::int64_t>(r.tokens.size()) == r.expected;
}

double ttft_ms(const Record& r) {
  if (!r.ok || r.token_times.empty()) return kInf;
  return ms_between(r.sent, r.token_times.front());
}

double tpot_ms(const Record& r) {
  if (!r.ok || r.token_times.size() < 2) return kInf;
  return ms_between(r.token_times.front(), r.token_times.back()) /
         static_cast<double>(r.token_times.size() - 1);
}

/// A quantile over values that may hold +inf (failed requests count as
/// beyond every limit); a quantile that lands on one reads 1e9 ms.
double tail_quantile(const std::vector<double>& v, double q) {
  const double x = quantile(v, q);
  return std::isfinite(x) ? x : 1e9;
}

/// Send `n` fixed requests closed-loop over every connection, waiting for
/// all of them: identical on every run, so set-up does the same work.
void warm_up(HttpClient& client, std::size_t n) {
  serve::TraceSpec spec;
  spec.n_requests = n;
  spec.vocab_size = 8192;
  spec.prompt_len_min = 16;
  spec.prompt_len_max = 48;
  spec.max_new_min = 8;
  spec.max_new_max = 16;
  spec.seed = 0x5eedULL;
  auto reqs = serve::synth_trace(spec);
  std::size_t next = 0, done = 0;
  const auto t0 = Clock::now();
  while (done < reqs.size()) {
    MGPT_CHECK(seconds_since(t0) < 60.0, "warm-up did not finish in 60 s");
    for (std::size_t c = 0; c < client.size() && next < reqs.size(); ++c) {
      if (!client.idle(c)) continue;
      reqs[next].id = kWarmupIdBase + next;
      client.send(c, "POST", "/v1/generate",
                  net::generate_body(reqs[next], true), next);
      ++next;
    }
    for (Exchange& ex : client.poll(1.0)) {
      MGPT_CHECK(!ex.transport_error && ex.status == 200,
                 "warm-up request failed (HTTP " << ex.status << ")");
      ++done;
    }
  }
}

Json get_stats(HttpClient& client) {
  client.send(0, "GET", "/v1/stats", "", 0);
  const auto t0 = Clock::now();
  while (true) {
    auto out = client.poll(1.0);
    MGPT_CHECK(!out.empty() || seconds_since(t0) < 30.0,
               "GET /v1/stats did not answer in 30 s");
    if (out.empty()) continue;
    MGPT_CHECK(!out[0].transport_error && out[0].status == 200,
               "GET /v1/stats failed");
    return Json::parse(out[0].body);
  }
}

double jnum(const Json& j, const char* key) {
  const Json* v = j.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

/// Model next-token loss on the workload's own prompts (no grad): the
/// serving workloads' loss_final, a deterministic output-quality number
/// that moves only when the arithmetic does.
double prompt_loss(const nn::GptModel& model,
                   const std::vector<std::vector<std::int32_t>>& prompts) {
  constexpr std::int64_t kSeq = 16;
  std::vector<std::int32_t> tokens, targets;
  std::int64_t batch = 0;
  for (const auto& p : prompts) {
    if (static_cast<std::int64_t>(p.size()) < kSeq + 1) continue;
    tokens.insert(tokens.end(), p.begin(), p.begin() + kSeq);
    targets.insert(targets.end(), p.begin() + 1, p.begin() + kSeq + 1);
    if (++batch == 8) break;
  }
  MGPT_CHECK(batch > 0, "no prompt long enough for the loss probe");
  Tape tape;
  matgpt::NoGradGuard guard(tape);
  Var loss = model.loss(tape, tokens, targets, batch, kSeq, false);
  return loss.value()[0];
}

/// What a run of one serving workload measured.
struct Window {
  std::vector<Record> records;
  Clock::time_point t0;
  Clock::time_point end;  // last completion (or the window end)
  double steal_frac = 0.0;
  Json stats;  // GET /v1/stats after the window
};

void fill_e2e(RunResult& r, const Window& w, const Options& opt,
              double setup_s, double loss) {
  std::vector<double> ttft, tpot;
  std::int64_t tokens = 0, slo_ok = 0;
  const double ttft_limit = opt.limits.ttft_ms;
  const double tpot_limit = opt.limits.tpot_ms;
  for (const Record& rec : w.records) {
    const double t = ttft_ms(rec);
    const double p = tpot_ms(rec);
    ttft.push_back(t);
    tpot.push_back(p);
    if (rec.ok) tokens += static_cast<std::int64_t>(rec.tokens.size());
    if (rec.ok && !rec.mismatch && t <= ttft_limit && p <= tpot_limit) {
      ++slo_ok;
    }
  }
  const double window_s = std::chrono::duration<double>(w.end - w.t0).count();
  // Throughput counts the tokens that reached the client inside the timed
  // window, so the drain after it does not dilute the figure.
  double in_window = 0.0;
  for (const Record& rec : w.records) {
    if (!rec.ok) continue;
    for (const auto& t : rec.token_times) {
      const double at = std::chrono::duration<double>(t - w.t0).count();
      if (at < opt.seconds) in_window += 1.0;
    }
  }
  r.e2e["setup_s"] = {setup_s, "s"};
  r.e2e["peak_rss_mb"] = {read_peak_rss_mb(), "MiB"};
  r.e2e["ttft_p50_ms"] = {tail_quantile(ttft, 0.5), "ms"};
  r.e2e["ttft_p90_ms"] = {tail_quantile(ttft, 0.9), "ms"};
  r.e2e["tpot_p50_ms"] = {tail_quantile(tpot, 0.5), "ms"};
  r.e2e["tpot_p90_ms"] = {tail_quantile(tpot, 0.9), "ms"};
  r.e2e["slo_ok_frac"] = {static_cast<double>(slo_ok) /
                              static_cast<double>(w.records.size()),
                          "frac"};
  r.e2e["tokens_per_s"] = {in_window / opt.seconds, "tok/s"};
  r.extra.set("tokens_generated", Json::number(tokens));
  r.e2e["loss_final"] = {loss, "nats"};
  r.extra.set("steal_frac", Json::number(w.steal_frac));
  r.extra.set("window_s", Json::number(window_s));
}

void count(RunResult& r, const Window& w) {
  for (const Record& rec : w.records) {
    ++r.attempted;
    if (rec.ok && !rec.mismatch) {
      ++r.succeeded;
    } else {
      ++r.failed;
    }
    if (rec.mismatch) ++r.mismatches;
  }
}

// --- per-layer metrics of the traced run -----------------------------------

/// Decode and prefill replays through the model's public forwards at the
/// shapes the traced run saw.
void replay_nn(RunResult& r, const nn::GptModel& model, std::int64_t context,
               const std::vector<std::int64_t>& prompt_lens, Lane& lane) {
  constexpr int kSteps = 16;
  const nn::GptConfig& mc = model.config();
  context = std::clamp<std::int64_t>(context, 1,
                                     mc.max_seq - 2 * kSteps);
  Rng rng(0x7e91a7ULL);
  auto random_tokens = [&](std::int64_t n) {
    std::vector<std::int32_t> t(static_cast<std::size_t>(n));
    for (auto& x : t) {
      x = static_cast<std::int32_t>(rng.uniform_int(
          static_cast<std::uint64_t>(mc.vocab_size)));
    }
    return t;
  };
  std::vector<nn::KvCache> caches(8);
  for (auto& c : caches) {
    c.reserve(mc, context + kSteps + 1);
    Tape tape;
    matgpt::NoGradGuard guard(tape);
    model.forward_incremental(tape, random_tokens(context), c);
  }
  for (const std::int64_t b : {1, 2, 4, 8}) {
    std::vector<nn::KvCache*> ptrs;
    for (std::int64_t i = 0; i < b; ++i) ptrs.push_back(&caches[i]);
    std::vector<double> times;
    for (int s = 0; s < kSteps; ++s) {
      const auto toks = random_tokens(b);
      Tape tape;
      matgpt::NoGradGuard guard(tape);
      const auto t0 = Clock::now();
      model.decode_batch(tape, toks, ptrs);
      const auto t1 = Clock::now();
      lane.add("nn", "nn.decode_batch", t0, t1, 0, "batch",
               static_cast<double>(b));
      times.push_back(ms_between(t0, t1));
    }
    for (auto* c : ptrs) c->truncate(context);
    r.layer["nn.decode_ms.b" + std::to_string(b)] = {median(times), "ms"};
  }
  double us = 0.0;
  std::int64_t toks = 0;
  for (std::size_t i = 0; i < prompt_lens.size() && i < 16; ++i) {
    const std::int64_t len = std::min(prompt_lens[i], mc.max_seq - 1);
    nn::KvCache cache;
    const auto prompt = random_tokens(len);
    Tape tape;
    matgpt::NoGradGuard guard(tape);
    const auto t0 = Clock::now();
    model.forward_incremental(tape, prompt, cache);
    const auto t1 = Clock::now();
    lane.add("nn", "nn.prefill", t0, t1, 0, "tokens",
             static_cast<double>(len));
    us += 1000.0 * ms_between(t0, t1);
    toks += len;
  }
  r.layer["nn.prefill_us_per_tok"] = {toks > 0 ? us / static_cast<double>(toks)
                                               : 0.0,
                                      "us"};
}

/// FLOPs and bytes of one decode step at (batch, context), from tensor
/// shapes: every projection and the lm_head as a GEMV per sequence,
/// attention over the cached context, fp32 weights read once per step and
/// each sequence's K/V read once.
void decode_cost(RunResult& r, const nn::GptConfig& mc, double batch,
                 double context) {
  const double h = static_cast<double>(mc.hidden);
  const double kv = static_cast<double>(mc.kv_heads() * mc.head_dim());
  const double layers = static_cast<double>(mc.n_layers);
  const double ffn =
      static_cast<double>(nn::SwiGluMlp::inner_dim_for(mc.hidden));
  const double weights_per_layer = h * h * 2 + h * kv * 2 + 3 * h * ffn;
  const double weights = layers * weights_per_layer +
                         h * static_cast<double>(mc.vocab_size);
  const double attn_flops = layers * 4.0 * context * h;  // QK^T and PV
  const double flops = batch * (2.0 * weights + attn_flops);
  const double bytes =
      4.0 * weights + batch * layers * 2.0 * context * kv * 4.0;
  r.layer["tensor.decode_gflop_per_step"] = {flops / 1e9, "GFLOP"};
  r.layer["tensor.decode_mb_per_step"] = {bytes / (1024.0 * 1024.0), "MiB"};
}

void fill_layers(RunResult& r, const Window& w, const Tracer& tracer) {
  std::vector<double> front, step_ms, seqs;
  std::int64_t failed = 0;
  for (const Record& rec : w.records) {
    if (!rec.ok || rec.mismatch) ++failed;
    if (rec.ok && rec.engine_ttft_ms >= 0.0 && !rec.token_times.empty()) {
      front.push_back(ms_between(rec.sent, rec.token_times.front()) -
                      rec.engine_ttft_ms);
    }
  }
  double busy_ms = 0.0;
  for (const Span* s : tracer.find("serve.step")) {
    step_ms.push_back(span_ms(*s));
    seqs.push_back(s->arg);
    busy_ms += span_ms(*s);
  }
  const double window_ms = ms_between(w.t0, w.end);
  double seq_sum = 0.0;
  for (const double s : seqs) seq_sum += s;
  r.layer["net.front_ms_p50"] = {front.empty() ? 0.0 : median(front), "ms"};
  r.layer["net.failed"] = {static_cast<double>(failed), "count"};
  r.layer["serve.steps"] = {static_cast<double>(step_ms.size()), "count"};
  r.layer["serve.step_ms_p50"] = {step_ms.empty() ? 0.0 : median(step_ms),
                                  "ms"};
  r.layer["serve.batch_mean"] = {
      seqs.empty() ? 0.0 : seq_sum / static_cast<double>(seqs.size()), "seqs"};
  r.layer["serve.busy_frac"] = {busy_ms / window_ms, "frac"};
  const Json& e = *w.stats.find("engine");
  const Json* qd = e.find("queue_delay_ms");
  r.layer["serve.queue_delay_ms_p50"] = {qd ? jnum(*qd, "p50") : 0.0, "ms"};
  r.layer["prefix.hit_rate"] = {jnum(e, "prefix_hit_rate"), "frac"};
  const double prompt_toks = jnum(e, "prefix_prompt_tokens");
  r.layer["prefix.reused_frac"] = {
      prompt_toks > 0 ? jnum(e, "prefix_tokens_reused") / prompt_toks : 0.0,
      "frac"};
  const double resumes = jnum(e, "session_resumes");
  r.layer["tier.resume_restored_frac"] = {
      resumes > 0 ? (resumes - jnum(e, "session_resume_recomputes")) / resumes
                  : 0.0,
      "frac"};
  r.layer["tier.host_refusals"] = {jnum(e, "kv_tier_store_refusals"), "count"};
  r.layer["kv.peak_block_util"] = {jnum(e, "peak_block_utilization"), "frac"};
  r.layer["kv.preemptions"] = {jnum(e, "preemptions"), "count"};
}

/// Median context length (tokens already in the sequence) over every
/// decoded token, and each request's prefilled prompt length.
void decode_shapes(const Window& w, std::int64_t& context,
                   std::vector<std::int64_t>& prompt_lens) {
  std::vector<double> ctx;
  for (const Record& rec : w.records) {
    if (!rec.ok) continue;
    prompt_lens.push_back(rec.prompt_len);
    for (std::size_t j = 1; j < rec.tokens.size(); ++j) {
      ctx.push_back(static_cast<double>(rec.context0) +
                    static_cast<double>(j));
    }
  }
  context = ctx.empty() ? 1 : static_cast<std::int64_t>(median(ctx));
}

/// Trace-mode tail: per-layer metrics, replays, overhead and the trace
/// file.
void finish_traced(RunResult& r, const Options& opt, const Window& traced,
                   Tracer& tracer, Lane& replay_lane,
                   const nn::GptModel& model, double overhead) {
  fill_layers(r, traced, tracer);
  std::int64_t context = 1;
  std::vector<std::int64_t> prompt_lens;
  decode_shapes(traced, context, prompt_lens);
  replay_nn(r, model, context, prompt_lens, replay_lane);
  decode_cost(r, model.config(),
              std::max(1.0, std::round(r.layer["serve.batch_mean"].value)),
              static_cast<double>(context));
  r.layer["trace.overhead_frac"] = {overhead, "frac"};
  r.extra.set("replay_context", Json::number(context));
  r.extra.set("tensor_metrics", Json::string("computed from tensor shapes, "
                                             "not measured"));
  const std::string path =
      std::string(kOutDir) + "/trace_" + opt.workload + ".json";
  tracer.write_chrome(path, "perfbench " + opt.workload);
  r.extra.set("trace_file", Json::string(path));
  r.extra.set("trace_spans",
              Json::number(static_cast<std::int64_t>(tracer.span_count())));
}

/// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform_int(i)]);
  }
}

/// `n` integers spread evenly over [lo, hi], in a seeded random order: every
/// seed draws the same length distribution, so runs on different seeds
/// differ in order and content, not in how much work they offer.
std::vector<std::int64_t> stratified(std::size_t n, std::int64_t lo,
                                     std::int64_t hi, Rng& rng) {
  std::vector<std::int64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = lo + static_cast<std::int64_t>(
                    (static_cast<double>(i) + 0.5) / static_cast<double>(n) *
                    static_cast<double>(hi - lo + 1));
  }
  shuffle(v, rng);
  return v;
}

/// A deployment plus the client connections that warmed it up and go on to
/// carry the run (at most nproc of them).
struct Served {
  std::unique_ptr<Deployment> deployment;
  // Declared last, destroyed first: connections close before the server.
  std::unique_ptr<HttpClient> client;
};

/// Set-up: model init, engine + server construction and a fixed warm-up,
/// repeated; setup_s is the median and the last deployment serves the run.
Served set_up(Lane* step_lane, SetupTimes& times) {
  // A traced deployment is set up once: its set-up time is not reported.
  const int repeats = step_lane != nullptr ? 1 : kSetupRepeats;
  const auto conns = static_cast<std::size_t>(read_host().nproc);
  Served s;
  for (int k = 0; k < repeats; ++k) {
    s.client.reset();
    s.deployment.reset();
    times.time([&] {
      s.deployment = std::make_unique<Deployment>(step_lane);
      s.client = std::make_unique<HttpClient>(s.deployment->port(), conns);
      warm_up(*s.client, 2 * conns);
    });
  }
  return s;
}

Clock::time_point offset(Clock::time_point t0, double s) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(s));
}

/// Add a traced window's request counts and errors to the run's.
void add_counts(RunResult& r, const RunResult& traced) {
  r.errors.insert(r.errors.end(), traced.errors.begin(), traced.errors.end());
  r.attempted += traced.attempted;
  r.succeeded += traced.succeeded;
  r.failed += traced.failed;
  r.mismatches += traced.mismatches;
  r.checked += traced.checked;
}

// --- multiturn --------------------------------------------------------------

/// One conversation's inputs and the records of its turns, for the
/// reference check.
struct Conversation {
  std::vector<std::vector<std::int32_t>> prompts;  // new tokens per turn
  std::vector<std::int64_t> max_new;
  std::vector<std::size_t> records;  // index into Window::records per turn
};

struct MultiturnPlan {
  std::vector<std::int32_t> system_prompt;
  std::uint64_t seed = 0;
};

MultiturnPlan multiturn_plan(const Options& opt) {
  MultiturnPlan p;
  p.seed = opt.seed;
  Rng rng(mix_seed(opt.seed, 4));
  for (std::int64_t i = 0; i < kSystemTokens; ++i) {
    p.system_prompt.push_back(static_cast<std::int32_t>(rng.uniform_int(8192)));
  }
  return p;
}

/// The k-th conversation of slot `slot`: inputs depend only on the seed.
Conversation make_conversation(const MultiturnPlan& p, std::size_t slot,
                               std::size_t k) {
  Rng rng(mix_seed(p.seed, 1000 + slot * 100003 + k));
  const auto turns = static_cast<std::size_t>(kTurns);
  // Every conversation draws the same lengths, in its own order.
  const auto msg_lens = stratified(turns, kUserTokensMin, kUserTokensMax, rng);
  const auto reply_lens =
      stratified(turns, kReplyTokensMin, kReplyTokensMax, rng);
  Conversation c;
  for (std::size_t t = 0; t < turns; ++t) {
    std::vector<std::int32_t> prompt;
    if (t == 0) prompt = p.system_prompt;
    for (std::int64_t i = 0; i < msg_lens[t]; ++i) {
      prompt.push_back(static_cast<std::int32_t>(rng.uniform_int(8192)));
    }
    c.prompts.push_back(std::move(prompt));
    c.max_new.push_back(reply_lens[t]);
  }
  return c;
}

Window run_multiturn_loop(Served& s, const MultiturnPlan& plan,
                          double seconds, std::vector<Conversation>& convs,
                          Lane* lane) {
  HttpClient& client = *s.client;
  enum class Op { kCreate, kTurn, kDrop };
  struct Slot {
    std::size_t conv = 0;     // index into convs
    std::size_t serial = 0;   // conversations started in this slot
    std::uint64_t session = 0;
    int turn = 0;
    std::int64_t history = 0;  // tokens in the session so far
  };
  struct User {
    std::vector<Slot> slots;
    std::size_t cur = 0;
    Op op = Op::kCreate;
  };
  const std::size_t users = client.size();
  std::vector<User> us(users);
  auto start_conv = [&](std::size_t u, Slot& slot) {
    const std::size_t global = u * kSessionsPerUser +
                               static_cast<std::size_t>(&slot - us[u].slots.data());
    convs.push_back(make_conversation(plan, global, slot.serial++));
    slot.conv = convs.size() - 1;
    slot.session = 0;
    slot.turn = 0;
    slot.history = 0;
  };
  for (std::size_t u = 0; u < users; ++u) {
    us[u].slots.resize(kSessionsPerUser);
    for (Slot& slot : us[u].slots) start_conv(u, slot);
  }
  Window w;
  std::uint64_t next_id = 1;
  StealMeter steal;
  w.t0 = Clock::now();
  const auto stop_at = offset(w.t0, seconds);
  auto issue = [&](std::size_t u) {
    User& user = us[u];
    Slot& slot = user.slots[user.cur];
    if (slot.session == 0) {
      user.op = Op::kCreate;
      client.send(u, "POST", "/v1/sessions", "{}", 0);
    } else if (slot.turn < kTurns) {
      const Conversation& c = convs[slot.conv];
      serve::Request req;
      req.id = next_id++;
      req.prompt = c.prompts[static_cast<std::size_t>(slot.turn)];
      req.max_new_tokens = c.max_new[static_cast<std::size_t>(slot.turn)];
      req.sampling = nn::SamplingParams::greedy_params();
      Record rec;
      rec.id = req.id;
      rec.prompt_len = static_cast<std::int64_t>(req.prompt.size());
      rec.context0 = slot.history + rec.prompt_len;
      rec.expected = req.max_new_tokens;
      w.records.push_back(std::move(rec));
      user.op = Op::kTurn;
      client.send(u, "POST",
                  "/v1/sessions/" + std::to_string(slot.session) + "/generate",
                  net::generate_body(req, true), w.records.size() - 1);
    } else {
      user.op = Op::kDrop;
      client.send(u, "DELETE", "/v1/sessions/" + std::to_string(slot.session),
                  "", 0);
    }
  };
  auto drop_failed = [&](std::size_t u, Slot& slot) {
    // A failed conversation is abandoned; its slot starts a new one.
    if (slot.session != 0) slot.turn = kTurns;
    else start_conv(u, slot);
  };
  // A user thinks before each turn: reads the reply, types the next
  // message. Seeded exponential pauses keep the users from falling into
  // step with each other, which made TTFT swing between runs.
  Rng think_rng(mix_seed(plan.seed, 6));
  std::vector<Clock::time_point> ready_at(users);
  std::vector<bool> thinking(users, false);
  auto next_is_turn = [&](std::size_t u) {
    const Slot& slot = us[u].slots[us[u].cur];
    return slot.session != 0 && slot.turn < kTurns;
  };
  std::size_t busy = 0, pausing = 0;
  for (std::size_t u = 0; u < users; ++u, ++busy) issue(u);
  while (busy + pausing > 0) {
    auto now = Clock::now();
    double timeout = 0.05;
    for (std::size_t u = 0; u < users; ++u) {
      if (!thinking[u]) continue;
      if (ready_at[u] > now) {
        timeout = std::min(timeout, std::chrono::duration<double>(
                                        ready_at[u] - now).count());
        continue;
      }
      thinking[u] = false;
      --pausing;
      if (now < stop_at) {
        issue(u);
        ++busy;
      }
    }
    for (Exchange& ex : client.poll(timeout)) {
      --busy;
      const std::size_t u = ex.conn;
      User& user = us[u];
      Slot& slot = user.slots[user.cur];
      const bool ok = !ex.transport_error;
      switch (user.op) {
        case Op::kCreate:
          if (ok && ex.status == 201) {
            const Json body = Json::parse(ex.body);
            const Json* id = body.find("session_id");
            MGPT_CHECK(id != nullptr, "POST /v1/sessions gave no session_id");
            slot.session = static_cast<std::uint64_t>(id->as_int());
          } else {
            Record rec;  // the conversation's first turn never ran
            rec.sent = rec.done = ex.done;
            w.records.push_back(std::move(rec));
            start_conv(u, slot);
          }
          break;
        case Op::kTurn: {
          Record& rec = w.records[ex.tag];
          absorb(rec, ex);
          if (lane != nullptr) {
            lane->add("net", "net.request", rec.sent, rec.done, rec.id,
                      "tokens", static_cast<double>(rec.tokens.size()));
          }
          if (rec.ok) {
            convs[slot.conv].records.push_back(ex.tag);
            slot.history = rec.context0 + rec.expected;
            ++slot.turn;
            user.cur = (user.cur + 1) % user.slots.size();
          } else {
            drop_failed(u, slot);
          }
          break;
        }
        case Op::kDrop:
          start_conv(u, slot);
          user.cur = (user.cur + 1) % user.slots.size();
          break;
      }
      now = Clock::now();
      if (now >= stop_at) continue;
      if (next_is_turn(u)) {
        const double pause_s =
            -kThinkMsMean / 1000.0 * std::log(1.0 - think_rng.uniform());
        ready_at[u] = offset(now, pause_s);
        thinking[u] = true;
        ++pausing;
      } else {
        issue(u);
        ++busy;
      }
    }
    if (Clock::now() > stop_at + std::chrono::seconds(60)) {
      for (Exchange& ex : client.abort_all()) {
        --busy;
        if (us[ex.conn].op == Op::kTurn) absorb(w.records[ex.tag], ex);
      }
    }
  }
  w.end = Clock::now();
  w.steal_frac = steal.steal_frac();
  w.stats = get_stats(client);
  return w;
}

/// Replay one conversation through batch-1 GptModel::forward_incremental
/// on an unpaged KvCache that holds its whole history (never batched,
/// parked or prefix-shared), greedy, and flag each turn that differs.
std::int64_t replay_conversation(const Conversation& c, Window& w,
                                 const nn::GptModel& model) {
  nn::KvCache cache;
  std::vector<std::int32_t> feed;
  for (std::size_t t = 0; t < c.records.size(); ++t) {
    Record& rec = w.records[c.records[t]];
    feed.insert(feed.end(), c.prompts[t].begin(), c.prompts[t].end());
    std::vector<std::int32_t> gen;
    for (std::int64_t j = 0; j < c.max_new[t]; ++j) {
      Tape tape;
      matgpt::NoGradGuard guard(tape);
      const Var logits = model.forward_incremental(tape, feed, cache);
      gen.push_back(nn::argmax_token(logits.value().span()));
      feed.assign(1, gen.back());
    }
    rec.mismatch = gen != rec.tokens;
  }
  return static_cast<std::int64_t>(c.records.size());
}

/// Every turn against an in-process full-history reference: each
/// conversation is replayed batch-1 with its full history in one KV cache
/// (conversations spread over nproc threads). A seeded sample of turns is
/// also recomputed from scratch with GptModel::generate_cached over the
/// full history token list, anchoring the replay.
void check_multiturn(RunResult& r, Window& w,
                     const std::vector<Conversation>& convs,
                     const nn::GptModel& model, const Options& opt) {
  const auto threads = static_cast<std::size_t>(read_host().nproc);
  std::vector<std::int64_t> checked(threads, 0);
  std::vector<std::exception_ptr> errors(threads);
  {
    std::vector<std::thread> pool;
    for (std::size_t k = 0; k < threads; ++k) {
      pool.emplace_back([&, k] {
        try {
          for (std::size_t i = k; i < convs.size(); i += threads) {
            checked[k] += replay_conversation(convs[i], w, model);
          }
        } catch (...) {
          errors[k] = std::current_exception();
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (const std::int64_t c : checked) r.checked += c;

  Rng rng(mix_seed(opt.seed, 5));
  const int samples = kFullHistoryChecks;
  const auto greedy = nn::SamplingParams::greedy_params();
  for (int s = 0; s < samples && !convs.empty(); ++s) {
    const Conversation& c = convs[rng.uniform_int(convs.size())];
    if (c.records.empty()) continue;
    const std::size_t turn = rng.uniform_int(c.records.size());
    std::vector<std::int32_t> history;
    for (std::size_t t = 0; t <= turn; ++t) {
      history.insert(history.end(), c.prompts[t].begin(), c.prompts[t].end());
      if (t < turn) {
        const auto& reply = w.records[c.records[t]].tokens;
        history.insert(history.end(), reply.begin(), reply.end());
      }
    }
    Record& rec = w.records[c.records[turn]];
    Rng unused(0);
    const auto ref =
        model.generate_cached(history, c.max_new[turn], greedy, unused);
    rec.mismatch = rec.mismatch ||
                   !std::equal(ref.begin() + history.size(), ref.end(),
                               rec.tokens.begin(), rec.tokens.end());
  }
}

}  // namespace

/// Untraced, one window gives the end-to-end metrics; traced, a second
/// window with the engine stepped by the benchmark gives the per-layer ones.
RunResult run_multiturn(const Options& opt) {
  const MultiturnPlan plan = multiturn_plan(opt);
  std::vector<std::vector<std::int32_t>> prompts;
  for (std::size_t k = 0; k < 8; ++k) {
    prompts.push_back(make_conversation(plan, k, 0).prompts[0]);
  }
  // Drive one timed window and check its outputs into `r`.
  auto run_window = [&](Served& s, RunResult& r, Lane* lane) {
    std::vector<Conversation> convs;
    Window w = run_multiturn_loop(s, plan, opt.seconds, convs, lane);
    check_multiturn(r, w, convs, s.deployment->model(), opt);
    return w;
  };
  RunResult r;
  SetupTimes setup;
  {
    Served s = set_up(nullptr, setup);
    Window w = run_window(s, r, nullptr);
    count(r, w);
    fill_e2e(r, w, opt, setup.median_s(),
             prompt_loss(s.deployment->model(), prompts));
    r.extra.set("setup_wall_s", Json::number(median(setup.wall_s)));
  }
  if (!opt.trace) return r;

  Tracer tracer;
  Lane& client_lane = tracer.lane("client");
  Lane& step_lane = tracer.lane("engine-step");
  Lane& replay_lane = tracer.lane("replay");
  SetupTimes traced_setup;
  Served s = set_up(&step_lane, traced_setup);
  s.deployment->start_recording();
  RunResult rt;
  Window wt = run_window(s, rt, &client_lane);
  s.client.reset();
  s.deployment->stop();  // the step thread has ended; its lane is ours
  count(rt, wt);
  fill_e2e(rt, wt, opt, traced_setup.median_s(), 1.0);
  // Relative slowdown of tokens_per_s under tracing.
  const double overhead =
      r.e2e["tokens_per_s"].value / rt.e2e["tokens_per_s"].value - 1.0;
  finish_traced(r, opt, wt, tracer, replay_lane, s.deployment->model(),
                overhead);
  add_counts(r, rt);
  return r;
}

}  // namespace perfbench
