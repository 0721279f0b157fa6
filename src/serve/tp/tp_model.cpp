#include "serve/tp/tp_model.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <utility>

#include "common/error.h"
#include "nn/layers.h"
#include "tensor/ops.h"

namespace matgpt::serve::tp {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* layout_name(TpLayout layout) {
  switch (layout) {
    case TpLayout::kColumnGather:
      return "column_gather";
    case TpLayout::kRowAllreduce:
      return "row_allreduce";
  }
  return "?";
}

void TpConfig::validate() const {
  MGPT_CHECK(ranks >= 1, "tensor-parallel ranks must be >= 1, got " << ranks);
  MGPT_CHECK(layout == TpLayout::kColumnGather ||
                 layout == TpLayout::kRowAllreduce,
             "unknown tensor-parallel layout");
}

Tensor column_slice(const Tensor& w, std::int64_t begin, std::int64_t end) {
  MGPT_CHECK(w.ndim() == 2, "column_slice expects a 2-D tensor");
  MGPT_CHECK(0 <= begin && begin < end && end <= w.dim(1),
             "column_slice range [" << begin << ", " << end
                                    << ") out of bounds for width " << w.dim(1));
  const std::int64_t rows = w.dim(0);
  const std::int64_t full = w.dim(1);
  const std::int64_t width = end - begin;
  Tensor out({rows, width});
  const float* src = w.data();
  float* dst = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    std::copy_n(src + r * full + begin, width, dst + r * width);
  }
  return out;
}

Tensor row_slice(const Tensor& w, std::int64_t begin, std::int64_t end) {
  MGPT_CHECK(w.ndim() == 2, "row_slice expects a 2-D tensor");
  MGPT_CHECK(0 <= begin && begin < end && end <= w.dim(0),
             "row_slice range [" << begin << ", " << end
                                 << ") out of bounds for " << w.dim(0)
                                 << " rows");
  const std::int64_t width = w.dim(1);
  Tensor out({end - begin, width});
  std::copy_n(w.data() + begin * width, (end - begin) * width, out.data());
  return out;
}

Tensor slice_1d(const Tensor& b, std::int64_t begin, std::int64_t end) {
  MGPT_CHECK(b.ndim() == 1, "slice_1d expects a 1-D tensor");
  MGPT_CHECK(0 <= begin && begin < end && end <= b.dim(0),
             "slice_1d range [" << begin << ", " << end
                                << ") out of bounds for length " << b.dim(0));
  Tensor out({end - begin});
  std::copy_n(b.data() + begin, end - begin, out.data());
  return out;
}

TpModel::TpModel(const nn::GptModel& model, TpConfig config)
    : model_(model), config_(config) {
  config_.validate();
  const nn::GptConfig& cfg = model_.config();
  params_ = model_.parameters();
  auto find = [&](const std::string& name) -> Var {
    for (const nn::NamedParam& p : params_) {
      if (p.name == name) return p.var;
    }
    MGPT_CHECK(false, "tensor-parallel shard: model has no parameter '"
                          << name << "'");
    return Var();
  };
  tok_emb_ = find("tok_emb");
  final_gamma_ = find("final_norm.gamma");
  if (cfg.arch == nn::ArchFamily::kNeoX) {
    final_beta_ = find("final_norm.beta");
  }
  inner_total_ = cfg.arch == nn::ArchFamily::kNeoX
                     ? 4 * cfg.hidden
                     : nn::SwiGluMlp::inner_dim_for(cfg.hidden);

  const int n = config_.ranks;
  group_ = std::make_shared<detail::GroupState>(n);
  ranks_.resize(static_cast<std::size_t>(n));

  // Every rank builds its own shard (slicing is the expensive part of
  // construction, so it parallelizes); failures are collected and the first
  // one is rethrown after the pool is torn down. The worker lambda's
  // build-phase captures (errors/built) dangle once the constructor returns,
  // but worker_loop never touches them.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::mutex built_mutex;
  std::condition_variable built_cv;
  int built = 0;
  threads_.reserve(static_cast<std::size_t>(n - 1));
  for (int r = 1; r < n; ++r) {
    threads_.emplace_back([this, r, &errors, &built_mutex, &built_cv, &built] {
      try {
        ranks_[static_cast<std::size_t>(r)] = build_rank_state(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(built_mutex);
        ++built;
      }
      built_cv.notify_all();
      worker_loop(r);
    });
  }
  try {
    ranks_[0] = build_rank_state(0);
  } catch (...) {
    errors[0] = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lk(built_mutex);
    built_cv.wait(lk, [&] { return built == n - 1; });
  }
  for (int r = 0; r < n; ++r) {
    if (errors[static_cast<std::size_t>(r)]) {
      shutdown();
      std::rethrow_exception(errors[static_cast<std::size_t>(r)]);
    }
  }
}

TpModel::~TpModel() { shutdown(); }

void TpModel::shutdown() {
  if (threads_.empty()) return;
  Job exit;
  exit.kind = Job::Kind::kExit;
  publish(exit);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

std::unique_ptr<TpModel::RankState> TpModel::build_rank_state(int rank) const {
  const nn::GptConfig& cfg = model_.config();
  const int n = config_.ranks;
  const std::int64_t d = cfg.head_dim();
  const std::int64_t hidden = cfg.hidden;
  // The geometry checks live on the rank, not the constructor: an
  // unshardable model is precisely a rank failing to build its shard, and
  // the constructor's error path propagates it.
  MGPT_CHECK(cfg.n_heads % n == 0, "tensor_parallel = "
                                       << n << " must divide n_heads = "
                                       << cfg.n_heads);
  MGPT_CHECK(cfg.kv_heads() % n == 0, "tensor_parallel = "
                                          << n << " must divide kv_heads = "
                                          << cfg.kv_heads());
  MGPT_CHECK(inner_total_ % n == 0, "tensor_parallel = "
                                        << n << " must divide the MLP inner dim = "
                                        << inner_total_);

  auto rs = std::make_unique<RankState>();
  rs->comm = std::make_unique<Communicator>(rank, group_);
  rs->q_heads = cfg.n_heads / n;
  rs->q_head_begin = rank * rs->q_heads;
  rs->kv_heads = cfg.kv_heads() / n;
  rs->kv_head_begin = rank * rs->kv_heads;
  rs->inner = inner_total_ / n;
  rs->inner_begin = rank * rs->inner;
  // lm_head vocab columns split as evenly as possible (V need not divide).
  const std::int64_t v = cfg.vocab_size;
  rs->vocab = v / n + (rank < v % n ? 1 : 0);
  rs->vocab_begin = rank * (v / n) + std::min<std::int64_t>(rank, v % n);

  auto find = [&](const std::string& name) -> const Var& {
    for (const nn::NamedParam& p : params_) {
      if (p.name == name) return p.var;
    }
    MGPT_CHECK(false, "tensor-parallel shard: model has no parameter '"
                          << name << "'");
    static Var undefined;
    return undefined;
  };
  auto col_shard = [&](const std::string& name, std::int64_t begin,
                       std::int64_t end) {
    return make_var(column_slice(find(name).value(), begin, end), false);
  };
  auto row_shard = [&](const std::string& name, std::int64_t begin,
                       std::int64_t end) {
    return make_var(row_slice(find(name).value(), begin, end), false);
  };
  auto bias_shard = [&](const std::string& name, std::int64_t begin,
                        std::int64_t end) {
    return make_var(slice_1d(find(name).value(), begin, end), false);
  };

  const bool neox = cfg.arch == nn::ArchFamily::kNeoX;
  const bool col_gather = config_.layout == TpLayout::kColumnGather;
  const std::int64_t c_loc = hidden / n;  // n | n_heads implies n | hidden
  rs->layers.resize(static_cast<std::size_t>(cfg.n_layers));
  for (std::int64_t l = 0; l < cfg.n_layers; ++l) {
    LayerShard& ls = rs->layers[static_cast<std::size_t>(l)];
    const std::string p = "blocks." + std::to_string(l) + ".";
    // Norm parameters are full-width and replicated: share the model's Vars.
    if (neox) {
      ls.n1_gamma = find(p + "ln1.gamma");
      ls.n1_beta = find(p + "ln1.beta");
      ls.n2_gamma = find(p + "ln2.gamma");
      ls.n2_beta = find(p + "ln2.beta");
    } else {
      ls.n1_gamma = find(p + "rms1.gamma");
      ls.n2_gamma = find(p + "rms2.gamma");
    }

    const std::int64_t qb = rs->q_head_begin * d;
    const std::int64_t qe = qb + rs->q_heads * d;
    const std::int64_t kb = rs->kv_head_begin * d;
    const std::int64_t ke = kb + rs->kv_heads * d;
    ls.wq = col_shard(p + "attn.q.weight", qb, qe);
    ls.wk = col_shard(p + "attn.k.weight", kb, ke);
    ls.wv = col_shard(p + "attn.v.weight", kb, ke);
    if (neox) {
      ls.bq = bias_shard(p + "attn.q.bias", qb, qe);
      ls.bk = bias_shard(p + "attn.k.bias", kb, ke);
      ls.bv = bias_shard(p + "attn.v.bias", kb, ke);
    }
    if (col_gather) {
      // o input is the gathered full-width attention output; shard o's
      // OUTPUT columns like any other projection.
      ls.wo = col_shard(p + "attn.o.weight", rank * c_loc, (rank + 1) * c_loc);
      if (neox) {
        ls.bo = bias_shard(p + "attn.o.bias", rank * c_loc, (rank + 1) * c_loc);
      }
    } else {
      // o input is this rank's head slice; shard o's INPUT rows to match and
      // allreduce the partial full-width outputs. Bias is added after the
      // reduce (full width, replicated).
      ls.wo = row_shard(p + "attn.o.weight", qb, qe);
      if (neox) ls.bo = find(p + "attn.o.bias");
    }

    const std::int64_t ib = rs->inner_begin;
    const std::int64_t ie = ib + rs->inner;
    if (neox) {
      ls.wu = col_shard(p + "mlp.up.weight", ib, ie);
      ls.bu = bias_shard(p + "mlp.up.bias", ib, ie);
    } else {
      ls.wg = col_shard(p + "mlp.gate.weight", ib, ie);
      ls.wu = col_shard(p + "mlp.up.weight", ib, ie);
    }
    if (col_gather) {
      ls.wd = col_shard(p + "mlp.down.weight", rank * c_loc, (rank + 1) * c_loc);
      if (neox) {
        ls.bd =
            bias_shard(p + "mlp.down.bias", rank * c_loc, (rank + 1) * c_loc);
      }
    } else {
      ls.wd = row_shard(p + "mlp.down.weight", ib, ie);
      if (neox) ls.bd = find(p + "mlp.down.bias");
    }
  }
  rs->lm_w = col_shard("lm_head.weight", rs->vocab_begin,
                       rs->vocab_begin + rs->vocab);
  return rs;
}

void TpModel::publish(const Job& job) {
  {
    std::lock_guard<std::mutex> lk(job_mutex_);
    job_ = job;
    ++job_gen_;
  }
  job_cv_.notify_all();
}

void TpModel::run(const Job& job) {
  publish(job);
  run_job(0, job);
}

void TpModel::worker_loop(int rank) {
  std::uint64_t seen = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(job_mutex_);
      job_cv_.wait(lk, [&] { return job_gen_ != seen; });
      seen = job_gen_;
      job = job_;
    }
    if (job.kind == Job::Kind::kExit) return;
    // Only kExit can be published when this rank failed to build (the
    // constructor throws before any forward job exists).
    run_job(rank, job);
  }
}

Var TpModel::gather_cols(Tape& tape, int rank, const RankState& rs,
                         const Var& x, std::int64_t total_w,
                         double& comm_s) const {
  (void)rank;
  const std::int64_t rows = x.value().dim(0);
  Tensor full({rows, total_w});
  const double t0 = now_s();
  rs.comm->allgather_cols(x.value().span(), full.span(),
                          static_cast<std::size_t>(rows));
  comm_s += now_s() - t0;
  return tape.leaf(std::move(full), false);
}

Var TpModel::attention_shard(Tape& tape, int rank, const RankState& rs,
                             const LayerShard& ls, std::int64_t layer,
                             const Var& xn, const Job& job,
                             std::span<const std::int64_t> positions,
                             double& comm_s) const {
  const nn::GptConfig& cfg = model_.config();
  const std::int64_t d = cfg.head_dim();
  const std::int64_t rows = job.n_tokens;
  const std::int64_t kv_full = cfg.kv_heads();
  const std::int64_t kv_row_loc = rs.kv_heads * d;

  Var q = ops::matmul(tape, xn, ls.wq);
  if (ls.bq.defined()) q = ops::add_bias(tape, q, ls.bq);
  q = ops::reshape(tape, q, {rows, rs.q_heads, d});
  q = ops::rope_rows(tape, q, positions, cfg.rope_theta, cfg.rotary_fraction);

  Var k = ops::matmul(tape, xn, ls.wk);
  if (ls.bk.defined()) k = ops::add_bias(tape, k, ls.bk);
  k = ops::reshape(tape, k, {rows, rs.kv_heads, d});
  k = ops::rope_rows(tape, k, positions, cfg.rope_theta, cfg.rotary_fraction);

  Var v = ops::matmul(tape, xn, ls.wv);
  if (ls.bv.defined()) v = ops::add_bias(tape, v, ls.bv);

  // Fill this rank's kv-head columns of the cache rows the driving thread
  // already extended, then attend over the history through a head-slice view.
  // Ranks touch disjoint bytes, and no rank reads another rank's heads, so
  // the layers need no synchronization between write and read.
  const float* k_rows = k.value().data();
  const float* v_rows = v.value().data();
  std::vector<ops::RaggedKv> hist(static_cast<std::size_t>(rows));
  auto slice_view = [&](ops::RaggedKv& h, const nn::KvCacheLayer& slot,
                        std::int64_t len) {
    h.len = len;
    h.head_offset = rs.kv_head_begin;
    h.kv_stride = kv_full * d;
    if (slot.paged()) {
      nn::PagedKvSeq* seq = slot.paged_seq();
      h.k_blocks = seq->k_blocks(slot.paged_layer());
      h.v_blocks = seq->v_blocks(slot.paged_layer());
      h.block_tokens = seq->block_tokens();
    } else {
      h.keys = slot.keys.data();
      h.values = slot.values.data();
    }
  };
  if (job.kind == Job::Kind::kSequence) {
    nn::KvCacheLayer& slot =
        job.cache->layers[static_cast<std::size_t>(layer)];
    slot.write_heads(job.past, rows, rs.kv_head_begin, rs.kv_heads, k_rows,
                     v_rows);
    for (std::int64_t t = 0; t < rows; ++t) {
      slice_view(hist[static_cast<std::size_t>(t)], slot, job.past + t + 1);
    }
  } else {
    for (std::int64_t i = 0; i < rows; ++i) {
      nn::KvCacheLayer& slot =
          job.caches[i]->layers[static_cast<std::size_t>(layer)];
      slot.write_heads(job.pasts[i], 1, rs.kv_head_begin, rs.kv_heads,
                       k_rows + i * kv_row_loc, v_rows + i * kv_row_loc);
      slice_view(hist[static_cast<std::size_t>(i)], slot, job.pasts[i] + 1);
    }
  }

  Var attn =
      ops::decode_attention(tape, q, hist, rs.kv_heads, cfg.flash_attention);

  if (config_.layout == TpLayout::kColumnGather) {
    Var full = gather_cols(tape, rank, rs, attn, cfg.hidden, comm_s);
    Var o = ops::matmul(tape, full, ls.wo);
    if (ls.bo.defined()) o = ops::add_bias(tape, o, ls.bo);
    return gather_cols(tape, rank, rs, o, cfg.hidden, comm_s);
  }
  Var o = ops::matmul(tape, attn, ls.wo);
  const double t0 = now_s();
  rs.comm->allreduce_det(o.value().span());
  comm_s += now_s() - t0;
  if (ls.bo.defined()) o = ops::add_bias(tape, o, ls.bo);
  return o;
}

Var TpModel::mlp_shard(Tape& tape, int rank, const RankState& rs,
                       const LayerShard& ls, const Var& x,
                       double& comm_s) const {
  const nn::GptConfig& cfg = model_.config();
  Var inner;
  if (cfg.arch == nn::ArchFamily::kNeoX) {
    Var u = ops::matmul(tape, x, ls.wu);
    if (ls.bu.defined()) u = ops::add_bias(tape, u, ls.bu);
    inner = ops::gelu(tape, u);
  } else {
    Var g = ops::matmul(tape, x, ls.wg);
    Var u = ops::matmul(tape, x, ls.wu);
    inner = ops::swiglu(tape, g, u);
  }
  if (config_.layout == TpLayout::kColumnGather) {
    Var full = gather_cols(tape, rank, rs, inner, inner_total_, comm_s);
    Var down = ops::matmul(tape, full, ls.wd);
    if (ls.bd.defined()) down = ops::add_bias(tape, down, ls.bd);
    return gather_cols(tape, rank, rs, down, cfg.hidden, comm_s);
  }
  Var down = ops::matmul(tape, inner, ls.wd);
  const double t0 = now_s();
  rs.comm->allreduce_det(down.value().span());
  comm_s += now_s() - t0;
  if (ls.bd.defined()) down = ops::add_bias(tape, down, ls.bd);
  return down;
}

void TpModel::run_job(int rank, const Job& job) {
  RankState& rs = *ranks_[static_cast<std::size_t>(rank)];
  const nn::GptConfig& cfg = model_.config();
  double comm_s = 0.0;

  Tape tape;
  NoGradGuard no_grad(tape);
  const std::span<const std::int32_t> tokens(
      job.tokens, static_cast<std::size_t>(job.n_tokens));
  std::vector<std::int64_t> positions(static_cast<std::size_t>(job.n_tokens));
  if (job.kind == Job::Kind::kSequence) {
    for (std::int64_t t = 0; t < job.n_tokens; ++t) {
      positions[static_cast<std::size_t>(t)] = job.past + t;
    }
  } else {
    for (std::int64_t i = 0; i < job.n_tokens; ++i) {
      positions[static_cast<std::size_t>(i)] = job.pasts[i];
    }
  }

  // Every rank runs the full-width embedding / norms / residual stream
  // redundantly — identical bytes on every rank, which is what lets the
  // column-sharded projections slot in without a scatter.
  Var h = ops::embedding(tape, tok_emb_, tokens);
  for (std::int64_t l = 0; l < cfg.n_layers; ++l) {
    const LayerShard& ls = rs.layers[static_cast<std::size_t>(l)];
    auto norm = [&](const Var& x, const Var& gamma, const Var& beta) {
      return beta.defined() ? ops::layer_norm(tape, x, gamma, beta)
                            : ops::rms_norm(tape, x, gamma);
    };
    Var xn = norm(h, ls.n1_gamma, ls.n1_beta);
    Var attn =
        attention_shard(tape, rank, rs, ls, l, xn, job, positions, comm_s);
    if (cfg.arch == nn::ArchFamily::kNeoX) {
      // Parallel residual with TransformerBlock's exact grouping:
      // x + (attn + mlp).
      Var mn = norm(h, ls.n2_gamma, ls.n2_beta);
      Var mlp = mlp_shard(tape, rank, rs, ls, mn, comm_s);
      h = ops::add(tape, h, ops::add(tape, attn, mlp));
    } else {
      Var mid = ops::add(tape, h, attn);
      Var mn = norm(mid, ls.n2_gamma, ls.n2_beta);
      Var mlp = mlp_shard(tape, rank, rs, ls, mn, comm_s);
      h = ops::add(tape, mid, mlp);
    }
  }
  if (job.kind == Job::Kind::kSequence && job.last_row_only &&
      job.n_tokens > 1) {
    h = ops::slice_rows(tape, h, job.n_tokens - 1, job.n_tokens);
  }
  h = final_beta_.defined() ? ops::layer_norm(tape, h, final_gamma_, final_beta_)
                            : ops::rms_norm(tape, h, final_gamma_);

  // Each rank writes its vocab columns straight into the caller's logits
  // tensor; the trailing barrier is both the logits fence and the job's
  // completion signal (rank 0 returning from it proves every rank is done).
  Var local = ops::matmul(tape, h, rs.lm_w);
  const float* src = local.value().data();
  for (std::int64_t r = 0; r < job.rows; ++r) {
    std::copy_n(src + r * rs.vocab, rs.vocab,
                job.logits + r * cfg.vocab_size + rs.vocab_begin);
  }
  const double t0 = now_s();
  rs.comm->barrier();
  comm_s += now_s() - t0;

  if (rank == 0) {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    stats_.jobs += 1;
    stats_.comm_seconds += comm_s;
  }
}

Var TpModel::forward_incremental(Tape& tape,
                                 std::span<const std::int32_t> tokens,
                                 nn::KvCache& cache) {
  const nn::GptConfig& cfg = model_.config();
  const auto n_tokens = static_cast<std::int64_t>(tokens.size());
  MGPT_CHECK(n_tokens > 0, "forward_incremental needs at least one token");
  MGPT_CHECK(cache.length + n_tokens <= cfg.max_seq,
             "KV cache overflow: " << cache.length << " cached + " << n_tokens
                                   << " new > max_seq " << cfg.max_seq);
  if (cache.layers.empty()) {
    cache.layers.resize(static_cast<std::size_t>(cfg.n_layers));
  }
  MGPT_CHECK(static_cast<std::int64_t>(cache.layers.size()) == cfg.n_layers,
             "KV cache holds " << cache.layers.size() << " layers; model has "
                               << cfg.n_layers);
  for (auto& layer : cache.layers) {
    layer.extend(n_tokens, cfg.kv_heads(), cfg.head_dim());
  }
  Tensor logits({1, cfg.vocab_size});
  Job job;
  job.kind = Job::Kind::kSequence;
  job.tokens = tokens.data();
  job.n_tokens = n_tokens;
  job.cache = &cache;
  job.past = cache.length;
  job.last_row_only = true;
  job.logits = logits.data();
  job.rows = 1;
  run(job);
  cache.length += n_tokens;
  return tape.leaf(std::move(logits), false);
}

Var TpModel::verify_append(Tape& tape, std::span<const std::int32_t> tokens,
                           nn::KvCache& cache) {
  const nn::GptConfig& cfg = model_.config();
  const auto n_tokens = static_cast<std::int64_t>(tokens.size());
  MGPT_CHECK(n_tokens > 0, "verify_append needs at least one token");
  MGPT_CHECK(cache.length + n_tokens <= cfg.max_seq,
             "KV cache overflow: " << cache.length << " cached + " << n_tokens
                                   << " new > max_seq " << cfg.max_seq);
  if (cache.layers.empty()) {
    cache.layers.resize(static_cast<std::size_t>(cfg.n_layers));
  }
  MGPT_CHECK(static_cast<std::int64_t>(cache.layers.size()) == cfg.n_layers,
             "KV cache holds " << cache.layers.size() << " layers; model has "
                               << cfg.n_layers);
  for (auto& layer : cache.layers) {
    layer.extend(n_tokens, cfg.kv_heads(), cfg.head_dim());
  }
  Tensor logits({n_tokens, cfg.vocab_size});
  Job job;
  job.kind = Job::Kind::kSequence;
  job.tokens = tokens.data();
  job.n_tokens = n_tokens;
  job.cache = &cache;
  job.past = cache.length;
  job.last_row_only = false;
  job.logits = logits.data();
  job.rows = n_tokens;
  run(job);
  cache.length += n_tokens;
  return tape.leaf(std::move(logits), false);
}

Var TpModel::decode_batch(Tape& tape, std::span<const std::int32_t> tokens,
                          std::span<nn::KvCache* const> caches) {
  const nn::GptConfig& cfg = model_.config();
  const auto n = static_cast<std::int64_t>(tokens.size());
  MGPT_CHECK(n > 0, "decode_batch needs at least one sequence");
  MGPT_CHECK(static_cast<std::int64_t>(caches.size()) == n,
             "decode_batch: " << tokens.size() << " tokens vs "
                              << caches.size() << " caches");
  std::vector<std::int64_t> pasts(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    nn::KvCache* cache = caches[static_cast<std::size_t>(i)];
    MGPT_CHECK(cache != nullptr && cache->length > 0,
               "decode_batch requires primed caches (sequence " << i << ")");
    MGPT_CHECK(cache->length + 1 <= cfg.max_seq,
               "KV cache overflow on sequence " << i);
    MGPT_CHECK(static_cast<std::int64_t>(cache->layers.size()) == cfg.n_layers,
               "KV cache holds " << cache->layers.size()
                                 << " layers; model has " << cfg.n_layers);
    pasts[static_cast<std::size_t>(i)] = cache->length;
    for (auto& layer : cache->layers) {
      layer.extend(1, cfg.kv_heads(), cfg.head_dim());
    }
  }
  Tensor logits({n, cfg.vocab_size});
  Job job;
  job.kind = Job::Kind::kDecode;
  job.tokens = tokens.data();
  job.n_tokens = n;
  job.caches = caches.data();
  job.pasts = pasts.data();
  job.logits = logits.data();
  job.rows = n;
  run(job);
  for (std::int64_t i = 0; i < n; ++i) {
    caches[static_cast<std::size_t>(i)]->length += 1;
  }
  return tape.leaf(std::move(logits), false);
}

TpStats TpModel::stats() const {
  TpStats out;
  {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    out = stats_;
  }
  const Communicator& comm = *ranks_[0]->comm;
  out.bytes_gathered = comm.bytes_gathered();
  out.bytes_reduced = comm.bytes_reduced();
  return out;
}

}  // namespace matgpt::serve::tp
