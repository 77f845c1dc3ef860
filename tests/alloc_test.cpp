// Heap allocations of one training, per target.
//
// This file replaces the global operator new/delete, so it is its own test
// executable. Counting is per thread and switched on only inside
// count_allocations(); trainings run serially on the calling thread, so
// the count covers every allocation they make.
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "src/core/factor_model.h"
#include "src/core/metric_space.h"
#include "src/enterprise/incidents.h"
#include "src/graph/relationship_graph.h"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  if (t_counting) ++t_allocations;
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

template <typename F>
std::size_t count_allocations(F&& f) {
  t_allocations = 0;
  t_counting = true;
  f();
  t_counting = false;
  return t_allocations;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace murphy::core {
namespace {

TEST(Allocations, PerTargetOfAMemoHitAndAFittingFactorSet) {
  // A fixed enterprise topology, trained serially through a moment store.
  // After a warm-up at end - 1 (it creates the slots and grows this
  // thread's fit scratch), a training at `end` extends every block by one
  // row and refits every target; a second training at `end` hits every
  // memo.
  enterprise::IncidentDatasetOptions gen;
  gen.topology.num_apps = 6;
  gen.topology.hosts = 8;
  gen.topology.tors = 2;
  gen.topology.ports_per_tor = 8;
  gen.topology.datastores = 3;
  gen.dynamics.slices = 168;
  const enterprise::EnterpriseIncident inc = enterprise::make_incident(2, gen);
  const auto graph = graph::RelationshipGraph::build(
      inc.topo.db, std::vector<EntityId>{inc.symptom_entity});
  const MetricSpace space(inc.topo.db, graph);
  const TimeIndex end = inc.incident_end;
  MomentStore store;
  FactorTrainingOptions opts;
  opts.moment_store = &store;
  const auto train = [&](TimeIndex to) {
    FactorSet set(inc.topo.db, graph, space, 0, to, opts);
    (void)set;
  };
  train(end - 1);
  const std::size_t fitting = count_allocations([&] { train(end); });
  const std::size_t hit = count_allocations([&] { train(end); });
  const std::size_t targets = space.size();
  std::printf("targets %zu: fitting FactorSet %zu allocations, "
              "memo-hit FactorSet %zu\n",
              targets, fitting, hit);
  ASSERT_EQ(targets, 820u);
  // A memo hit allocates nothing per target: what remains is the
  // FactorSet's own flat arrays.
  EXPECT_EQ(hit, 10u);
  // A fit allocates the shared model (the object, its means and scales,
  // and the solve's weights and temporary) and, now and then, grows the
  // block's sorted target values.
  EXPECT_EQ(fitting, 3294u);
}

}  // namespace
}  // namespace murphy::core
