#include "src/core/sampler.h"

#include <algorithm>
#include <cassert>

#include "src/stats/ttest.h"
#include "src/stats/summary.h"

namespace murphy::core {

CounterfactualSampler::CounterfactualSampler(
    const graph::RelationshipGraph& graph, const MetricSpace& space,
    const FactorSet& factors, SamplerOptions opts)
    : graph_(graph),
      space_(space),
      factors_(factors),
      opts_(opts) {}

void CounterfactualSampler::prepare(graph::NodeIndex dst) {
  dist_to_ = graph_.distances_to(dst);
  prepared_dst_ = dst;
}

double CounterfactualSampler::resample_path(
    std::span<const graph::NodeIndex> path, VarIndex d_var,
    std::vector<double>& state, Rng& rng, std::size_t gibbs_rounds) const {
  for (std::size_t round = 0; round < gibbs_rounds; ++round) {
    for (std::size_t i = 1; i < path.size(); ++i)  // skip pinned candidate
      factors_.resample_node(path[i], space_, state, rng);
  }
  return state[d_var];
}

void CounterfactualSampler::run_kernel(
    std::span<const VarIndex> order, VarIndex a_var, VarIndex d_var,
    std::span<const double> cent0, double cent_a_cf, Rng& rng,
    std::vector<double>& d1, std::vector<double>& d2) const {
  const SampleKernel& kernel = factors_.kernel();

  // --- SoA packing -----------------------------------------------------------
  // Compact the written variable set (`order`) into slots [0, m). Features of
  // a resampled conditional split three ways: slot features vary per lane
  // (chain) and stay in the inner loop; the pinned candidate variable is
  // constant per SIDE and folds into a per-side base; every other feature is
  // frozen at its factual centered value and folds into the base outright.
  // With the kernel's pre-divided weights the inner loop is then a pure
  // FMA over contiguous lanes.
  const std::size_t m = order.size();
  thread_local std::vector<std::int32_t> slot_of;
  slot_of.assign(cent0.size(), -1);
  for (std::size_t j = 0; j < m; ++j)
    slot_of[order[j]] = static_cast<std::int32_t>(j);
  const std::int32_t d_slot = slot_of[d_var];
  assert(d_slot >= 0);  // d is the path's last node, so it is resampled

  thread_local std::vector<std::uint32_t> vf_begin, vf_slot;
  thread_local std::vector<double> vf_w, base_c, a_coef, sigma, init_cent;
  vf_begin.resize(m + 1);
  vf_slot.clear();
  vf_w.clear();
  base_c.resize(m);
  a_coef.resize(m);
  sigma.resize(m);
  init_cent.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    const VarIndex v = order[j];
    const SampleKernel::VarEntry& e = kernel.vars[v];
    vf_begin[j] = static_cast<std::uint32_t>(vf_slot.size());
    double base = e.base;
    double ac = 0.0;
    for (std::uint32_t k = e.begin; k < e.begin + e.count; ++k) {
      const std::uint32_t f = kernel.feat[k];
      const double wd = kernel.wdiv[k];
      if (f == a_var) {
        ac += wd;
      } else if (slot_of[f] >= 0) {
        vf_slot.push_back(static_cast<std::uint32_t>(slot_of[f]));
        vf_w.push_back(wd);
      } else {
        base += wd * cent0[f];
      }
    }
    // Store the base already re-centered for variable v: the lane update is
    // then cent[v] = base_c + sum(varying) + sigma * z in one pass.
    base_c[j] = base - kernel.mean[v];
    a_coef[j] = ac;
    sigma[j] = e.sigma;
    init_cent[j] = cent0[v];
  }
  vf_begin[m] = static_cast<std::uint32_t>(vf_slot.size());

  // --- lane-batched chains ---------------------------------------------------
  constexpr std::size_t kLanes = 64;
  thread_local std::vector<double> centL, mu, z, side_base;
  centL.resize(m * kLanes);
  mu.resize(kLanes);
  z.resize(kLanes);
  side_base.resize(m);
  const std::size_t rounds = opts_.gibbs_rounds;
  const double mean_d = kernel.mean[d_var];

  auto run_side = [&](double cent_a, std::vector<double>& out) {
    for (std::size_t j = 0; j < m; ++j)
      side_base[j] = base_c[j] + a_coef[j] * cent_a;
    for (std::size_t s0 = 0; s0 < opts_.num_samples; s0 += kLanes) {
      const std::size_t lanes = std::min(kLanes, opts_.num_samples - s0);
      for (std::size_t j = 0; j < m; ++j) {
        const double c0 = init_cent[j];
        double* cj = centL.data() + j * kLanes;
        for (std::size_t l = 0; l < lanes; ++l) cj[l] = c0;
      }
      for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t j = 0; j < m; ++j) {
          rng.fill_normal(std::span<double>(z.data(), lanes));
          const double b = side_base[j];
          for (std::size_t l = 0; l < lanes; ++l) mu[l] = b;
          for (std::uint32_t k = vf_begin[j]; k < vf_begin[j + 1]; ++k) {
            const double w = vf_w[k];
            const double* cf = centL.data() + vf_slot[k] * kLanes;
            for (std::size_t l = 0; l < lanes; ++l) mu[l] += w * cf[l];
          }
          const double sg = sigma[j];
          double* cj = centL.data() + j * kLanes;
          for (std::size_t l = 0; l < lanes; ++l) cj[l] = mu[l] + sg * z[l];
        }
      }
      const double* cd = centL.data() + static_cast<std::size_t>(d_slot) * kLanes;
      for (std::size_t l = 0; l < lanes; ++l) out.push_back(cd[l] + mean_d);
    }
  };
  run_side(cent_a_cf, d1);
  run_side(cent0[a_var], d2);
}

CounterfactualVerdict CounterfactualSampler::evaluate(
    graph::NodeIndex a, VarIndex a_var, graph::NodeIndex d, VarIndex d_var,
    std::span<const double> state, bool symptom_high, Rng& rng) const {
  return evaluate_impl(a, a_var, d, d_var, state, symptom_high, rng,
                       /*reference=*/false);
}

CounterfactualVerdict CounterfactualSampler::evaluate_reference(
    graph::NodeIndex a, VarIndex a_var, graph::NodeIndex d, VarIndex d_var,
    std::span<const double> state, bool symptom_high, Rng& rng) const {
  return evaluate_impl(a, a_var, d, d_var, state, symptom_high, rng,
                       /*reference=*/true);
}

CounterfactualVerdict CounterfactualSampler::evaluate_impl(
    graph::NodeIndex a, VarIndex a_var, graph::NodeIndex d, VarIndex d_var,
    std::span<const double> state, bool symptom_high, Rng& rng,
    bool reference) const {
  CounterfactualVerdict verdict;
  if (a == d) return verdict;

  // One backward BFS per diagnosis (prepare), one bounded forward BFS per
  // candidate; same path vector as the self-contained overload.
  const auto path =
      d == prepared_dst_
          ? graph_.shortest_path_subgraph(a, d, opts_.path_slack, dist_to_)
          : graph_.shortest_path_subgraph(a, d, opts_.path_slack);
  if (path.empty()) return verdict;  // A cannot influence D
  verdict.path_len = path.size();
  verdict.node_resamples =
      2 * opts_.num_samples * opts_.gibbs_rounds * (path.size() - 1);

  const MetricConditional& a_cond = factors_.conditional(a_var);
  const double a_now = state[a_var];
  // Counterfactual: push A's driver metric 2 sigma toward its historical
  // normal (lower when it's abnormally high, higher when abnormally low).
  // Direction comes from the robust center; the magnitude uses the classic
  // stddev of the window, which (incident included) reflects the scale of
  // recent excursions (§4.2 step 1).
  const double sigma = std::max(a_cond.hist_sigma(), 1e-6);
  const double direction = a_now >= a_cond.robust_center() ? -1.0 : 1.0;
  const double a_cf =
      a_now + direction * opts_.counterfactual_sigmas * sigma;

  // The resampling order, flattened once: the vars of path[1..] (the
  // candidate's own vars stay pinned).
  thread_local std::vector<VarIndex> order;
  order.clear();
  for (std::size_t i = 1; i < path.size(); ++i)
    for (const VarIndex v : space_.vars_of(path[i])) order.push_back(v);

  const SampleKernel& kernel = factors_.kernel();
  std::size_t cells_per_round = 0;
  for (const VarIndex v : order) cells_per_round += kernel.vars[v].count;
  verdict.kernel_cells =
      2 * opts_.num_samples * opts_.gibbs_rounds * cells_per_round;

  thread_local std::vector<double> cent0, d1, d2;
  d1.clear();
  d2.clear();
  d1.reserve(opts_.num_samples);
  d2.reserve(opts_.num_samples);

  if (!reference) {
    const std::size_t n_vars = state.size();
    cent0.resize(n_vars);
    for (VarIndex v = 0; v < n_vars; ++v)
      cent0[v] = factors_.center(v, state[v]);
    run_kernel(order, a_var, d_var, cent0, factors_.center(a_var, a_cf), rng,
               d1, d2);
  } else {
    // Reference draws: every sample resamples a fresh copy of the state,
    // counterfactual start then factual start (same resampling, so the two
    // distributions are comparable).
    thread_local std::vector<double> work;
    for (std::size_t s = 0; s < opts_.num_samples; ++s) {
      for (const bool counterfactual : {true, false}) {
        work.assign(state.begin(), state.end());
        work[a_var] = counterfactual ? a_cf : a_now;
        (counterfactual ? d1 : d2)
            .push_back(resample_path(path, d_var, work, rng,
                                     opts_.gibbs_rounds));
      }
    }
  }

  const auto t = stats::welch_t_test(d1, d2);
  // Symptom abnormally high: root cause iff counterfactual lowers D
  // (d1 << d2, small p_less). Abnormally low: iff it raises D.
  verdict.p_value = symptom_high ? t.p_less : 1.0 - t.p_less;
  verdict.is_root_cause = verdict.p_value < opts_.significance;
  verdict.mean_counterfactual = stats::mean(d1);
  verdict.mean_factual = stats::mean(d2);
  return verdict;
}

}  // namespace murphy::core
