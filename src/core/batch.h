// Multi-symptom diagnosis (§3 / Appendix A.1).
//
// A real ticket maps to several problematic symptoms; Murphy runs its
// inference separately per symptom and the operator wants one consolidated
// list. BatchDiagnosis runs the symptom finder over an affected application
// (or an explicit symptom list), diagnoses each symptom, and merges the
// per-symptom rankings: an entity implicated for several independent
// symptoms is a stronger suspect than one implicated once.
//
// Training reuse: a BatchDiagnoser owns one TrainingCaches (factor_cache.h)
// that persists across calls. Symptoms of one incident share most of their
// graph neighborhoods, so each shared factor trains once per batch instead
// of once per symptom (the moment-store slot's memo), and a repeat call
// retrains only the factors whose series were rewritten in between. Purely
// a work-saving measure: results are bitwise identical to cache-free
// per-symptom diagnoses.
#pragma once

#include <span>

#include "src/core/murphy.h"
#include "src/core/symptom_finder.h"

namespace murphy::core {

// Reciprocal-rank fusion of per-symptom rankings: entity score = sum over
// symptoms of 1/rank, counting only the top `per_symptom_top_k` causes of
// each symptom and excluding each symptom's own entity (it is an effect
// there). The result is sorted by score, ties broken by entity id, and is
// invariant under permutation of the (symptoms, per_symptom) pairs.
// `per_symptom` must parallel `symptoms`.
[[nodiscard]] std::vector<RankedRootCause> fuse_reciprocal_rank(
    std::span<const Symptom> symptoms,
    std::span<const DiagnosisResult> per_symptom,
    std::size_t per_symptom_top_k);

struct BatchOptions {
  MurphyOptions murphy;
  SymptomFinderOptions finder;
  // Per-symptom candidates below this rank do not contribute to the merge.
  std::size_t per_symptom_top_k = 10;
};

struct BatchResult {
  std::vector<Symptom> symptoms;                // what was diagnosed
  std::vector<DiagnosisResult> per_symptom;     // parallel to `symptoms`
  // Merged ranking: score = sum over symptoms of 1/rank (reciprocal-rank
  // fusion), so breadth of implication beats a single high placement.
  std::vector<RankedRootCause> merged;
};

class BatchDiagnoser {
 public:
  explicit BatchDiagnoser(BatchOptions opts = {});

  // Finds symptoms of `app` at `now` and diagnoses each.
  [[nodiscard]] BatchResult diagnose_app(const telemetry::MonitoringDb& db,
                                         AppId app, TimeIndex now,
                                         TimeIndex train_begin,
                                         TimeIndex train_end);

  // Diagnoses an explicit symptom list. Symptoms are diagnosed in parallel
  // (each symptom is an independent inference) on one pool of
  // resolve_num_threads(opts.murphy.num_threads) - 1 workers owned for the
  // call, which also runs every diagnosis's own loops (opts.murphy.pool is
  // replaced by it). Because every diagnosis is deterministic regardless of
  // thread count, the batch result is too.
  [[nodiscard]] BatchResult diagnose_symptoms(
      const telemetry::MonitoringDb& db, std::vector<Symptom> symptoms,
      TimeIndex now, TimeIndex train_begin, TimeIndex train_end);

 private:
  BatchOptions opts_;
  // Persistent across calls; pruned to TrainingCaches::kMaxBlocks at the
  // top of each call.
  TrainingCaches caches_;
};

}  // namespace murphy::core
