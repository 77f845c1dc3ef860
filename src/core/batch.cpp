#include "src/core/batch.h"

#include <algorithm>
#include <unordered_map>

#include "src/common/thread_pool.h"

namespace murphy::core {

std::vector<RankedRootCause> fuse_reciprocal_rank(
    std::span<const Symptom> symptoms,
    std::span<const DiagnosisResult> per_symptom,
    std::size_t per_symptom_top_k) {
  std::unordered_map<EntityId, double> fused;
  for (std::size_t s = 0; s < symptoms.size(); ++s) {
    const DiagnosisResult& diagnosis = per_symptom[s];
    for (std::size_t r = 0;
         r < diagnosis.causes.size() && r < per_symptom_top_k; ++r) {
      // The symptom entity itself is excluded from the merge (it is an
      // effect here, even if self-caused cases keep it in the per-symptom
      // list).
      if (diagnosis.causes[r].entity == symptoms[s].entity) continue;
      fused[diagnosis.causes[r].entity] += 1.0 / static_cast<double>(r + 1);
    }
  }
  std::vector<RankedRootCause> merged;
  merged.reserve(fused.size());
  for (const auto& [entity, score] : fused)
    merged.push_back(RankedRootCause{entity, score});
  std::sort(merged.begin(), merged.end(),
            [](const RankedRootCause& a, const RankedRootCause& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.entity < b.entity;
            });
  return merged;
}

BatchDiagnoser::BatchDiagnoser(BatchOptions opts) : opts_(opts) {}

BatchResult BatchDiagnoser::diagnose_app(const telemetry::MonitoringDb& db,
                                         AppId app, TimeIndex now,
                                         TimeIndex train_begin,
                                         TimeIndex train_end) {
  SymptomFinderOptions fopts = opts_.finder;
  fopts.history_begin = train_begin;
  return diagnose_symptoms(db, find_symptoms(db, app, now, fopts), now,
                           train_begin, train_end);
}

BatchResult BatchDiagnoser::diagnose_symptoms(
    const telemetry::MonitoringDb& db, std::vector<Symptom> symptoms,
    TimeIndex now, TimeIndex train_begin, TimeIndex train_end) {
  BatchResult result;
  result.symptoms = std::move(symptoms);
  result.per_symptom.resize(result.symptoms.size());

  const obs::ObsHooks& hooks = opts_.murphy.obs;
  obs::Span batch_span(hooks.tracer, "batch_diagnose");
  if (batch_span.enabled())
    batch_span.arg("symptoms",
                   static_cast<std::uint64_t>(result.symptoms.size()));
  const std::uint64_t batch_span_id = batch_span.id();
  if (hooks.metrics != nullptr)
    hooks.metrics->counter("batch.symptoms_diagnosed")
        ->add(result.symptoms.size());

  // One pool runs the symptom loop and every loop nested in it: a thread
  // whose symptom is done helps the diagnoses still running, so the split
  // between outer and inner parallelism needs no tuning. Any split produces
  // the same bits (determinism is per-diagnosis).
  ThreadPool pool(resolve_num_threads(opts_.murphy.num_threads) - 1);
  MurphyOptions inner = opts_.murphy;
  inner.pool = &pool;

  // Cross-symptom training cache. No diagnosis of this diagnoser is in
  // flight here, so no slot is in use and pruning is safe.
  caches_.prune(TrainingCaches::kMaxBlocks);
  caches_.attach(db, inner.training);
  pool.parallel_for(
      result.symptoms.size(), [&](std::size_t i) {
        // Explicit parent + symptom index as stream: the nested diagnosis
        // spans chain under this one on whatever thread runs it, so the
        // trace is thread-count invariant.
        obs::Span symptom_span(hooks.tracer, "diagnose_symptom", i,
                               batch_span_id);
        if (symptom_span.enabled())
          symptom_span.arg("metric", result.symptoms[i].metric);
        MurphyDiagnoser murphy(inner);
        DiagnosisRequest request;
        request.db = &db;
        request.symptom_entity = result.symptoms[i].entity;
        request.symptom_metric = result.symptoms[i].metric;
        request.now = now;
        request.train_begin = train_begin;
        request.train_end = train_end;
        result.per_symptom[i] = murphy.diagnose(request);
      });

  obs::Span merge_span(hooks.tracer, "merge_rankings", 0, batch_span_id);
  result.merged = fuse_reciprocal_rank(result.symptoms, result.per_symptom,
                                       opts_.per_symptom_top_k);
  merge_span.finish();
  return result;
}

}  // namespace murphy::core
