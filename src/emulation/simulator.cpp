#include "src/emulation/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/telemetry/metric_catalog.h"

namespace murphy::emulation {
namespace {

using telemetry::EntityType;
using telemetry::RelationKind;

// Queueing delay multiplier for utilization rho: an M/M/1-style 1/(1-rho)
// curve, clamped so saturated services degrade sharply but stay finite.
double queue_factor(double rho) {
  constexpr double kMaxRho = 0.95;
  const double r = std::clamp(rho, 0.0, kMaxRho);
  const double base = 1.0 / (1.0 - r);
  // Past saturation, add a linear overload penalty (requests queue up).
  const double overload = rho > kMaxRho ? (rho - kMaxRho) * 60.0 : 0.0;
  return base + overload;
}

}  // namespace

SimResult simulate(const AppModel& app, const std::vector<Fault>& faults,
                   const SimOptions& opts) {
  for (const ClientSpec& c : app.clients) {
    assert(c.rps_schedule.size() == opts.slices &&
           "client schedule must match slice count");
    (void)c;
  }

  SimResult result;
  telemetry::MonitoringDb& db = result.db;
  SimEntities& ents = result.entities;

  // --- entities & associations ----------------------------------------------
  ents.app = db.define_app(app.name);
  for (const NodeSpec& n : app.nodes)
    ents.nodes.push_back(db.add_entity(EntityType::kNode, n.name));
  for (const ContainerSpec& c : app.containers) {
    const EntityId id = db.add_entity(EntityType::kContainer, c.name, ents.app);
    ents.containers.push_back(id);
    db.add_association(id, ents.nodes[c.node], RelationKind::kContainerOnNode);
  }
  for (const ServiceSpec& s : app.services) {
    const EntityId id = db.add_entity(EntityType::kService, s.name, ents.app);
    ents.services.push_back(id);
    db.add_association(id, ents.containers[s.container],
                       RelationKind::kServiceOnContainer);
  }
  // Directed associations carry influence semantics (a -> b): the callee's
  // performance influences the caller, and the entry service's performance
  // influences the client. When the direction is unknown (the common cyclic
  // environment), the same pairs are stored undirected.
  for (const CallEdge& e : app.call_edges) {
    if (opts.bidirectional_call_edges) {
      db.add_association(ents.services[e.caller], ents.services[e.callee],
                         RelationKind::kCallerCallee, /*directed=*/false);
    } else {
      db.add_association(ents.services[e.callee], ents.services[e.caller],
                         RelationKind::kCallerCallee, /*directed=*/true);
    }
  }
  for (const ClientSpec& c : app.clients) {
    const EntityId id = db.add_entity(EntityType::kClient, c.name, ents.app);
    ents.clients.push_back(id);
    if (opts.bidirectional_call_edges) {
      db.add_association(id, ents.services[c.entry_service],
                         RelationKind::kClientOfService, /*directed=*/false);
    } else {
      db.add_association(ents.services[c.entry_service], id,
                         RelationKind::kClientOfService, /*directed=*/true);
    }
  }

  db.metrics().set_axis(
      TimeAxis(0.0, opts.interval_seconds, opts.slices));

  // Precompute each client's demand vector over services.
  std::vector<std::vector<double>> demand;  // [client][service]
  demand.reserve(app.clients.size());
  for (const ClientSpec& c : app.clients)
    demand.push_back(app.demand_vector(c.entry_service));

  const std::size_t num_s = app.services.size();
  const std::size_t num_c = app.containers.size();
  const std::size_t num_n = app.nodes.size();
  const std::size_t num_cl = app.clients.size();
  const std::size_t slices = opts.slices;

  // Metric buffers [entity][slice].
  auto buf = [&](std::size_t n) {
    return std::vector<std::vector<double>>(n, std::vector<double>(slices));
  };
  auto svc_rate = buf(num_s), svc_latency = buf(num_s);
  auto ctr_cpu = buf(num_c), ctr_mem = buf(num_c), ctr_disk = buf(num_c),
       ctr_net = buf(num_c);
  auto node_cpu = buf(num_n);
  auto cl_latency = buf(num_cl), cl_rate = buf(num_cl);

  Rng rng(opts.seed);
  std::vector<double> rho(num_s);
  std::vector<double> own_latency(num_s);
  // Each caller's outgoing edges, in call_edges order (the relaxation's order).
  std::vector<std::vector<const CallEdge*>> calls_of(num_s);
  for (const CallEdge& e : app.call_edges)
    if (e.caller < num_s) calls_of[e.caller].push_back(&e);
  // Each container's services, in service order (the summation order).
  std::vector<std::vector<std::size_t>> services_of(num_c);
  for (std::size_t s = 0; s < num_s; ++s)
    services_of[app.services[s].container].push_back(s);

  // Per-slice scratch, reset at the top of each slice.
  std::vector<double> rate, ctr_demand, node_demand, squeeze, total_latency;
  std::vector<ContainerPressure> pressure(num_c);
  for (TimeIndex t = 0; t < slices; ++t) {
    // Request rate per service = sum of client rps * demand multiplier.
    rate.assign(num_s, 0.0);
    for (std::size_t cl = 0; cl < num_cl; ++cl) {
      const double rps = app.clients[cl].rps_schedule[t];
      for (std::size_t s = 0; s < num_s; ++s)
        rate[s] += rps * demand[cl][s];
    }

    // Container CPU demand (cores): service work + fault pressure.
    ctr_demand.assign(num_c, 0.0);
    for (std::size_t c = 0; c < num_c; ++c) {
      pressure[c] =
          pressure_at(faults, c, app.containers[c].cpu_limit_cores, t);
      ctr_demand[c] = pressure[c].cpu_cores;
    }
    for (std::size_t s = 0; s < num_s; ++s)
      ctr_demand[app.services[s].container] +=
          rate[s] * app.services[s].cpu_cost_per_req;

    // Node contention: when the sum of co-located demand exceeds the node's
    // cores, every container on the node gets squeezed proportionally. This
    // is the shared-resource coupling that creates cyclic influence.
    node_demand.assign(num_n, 0.0);
    for (std::size_t c = 0; c < num_c; ++c)
      node_demand[app.containers[c].node] += ctr_demand[c];
    squeeze.assign(num_n, 1.0);
    for (std::size_t n = 0; n < num_n; ++n) {
      const double cores = app.nodes[n].cpu_cores;
      if (node_demand[n] > cores) squeeze[n] = cores / node_demand[n];
      node_cpu[n][t] =
          std::clamp(node_demand[n] / cores, 0.0, 1.0) * 100.0 *
          (1.0 + rng.normal(0.0, opts.noise));
    }

    // Per-service utilization & latency.
    for (std::size_t s = 0; s < num_s; ++s) {
      const ServiceSpec& spec = app.services[s];
      const ContainerSpec& ctr = app.containers[spec.container];
      const double capacity =
          ctr.cpu_limit_cores * squeeze[ctr.node];  // effective cores
      const double demand_cores = ctr_demand[spec.container];
      rho[s] = capacity > 1e-9 ? demand_cores / capacity : 10.0;
      // Two contention effects: queueing inside the container (rho), and CPU
      // starvation when the node is oversubscribed — every request on a
      // squeezed node receives fewer cycles/second, inflating service time
      // by 1/squeeze even for lightly loaded co-located containers.
      const double starvation = 1.0 / std::max(squeeze[ctr.node], 0.2);
      own_latency[s] = spec.base_latency_ms * queue_factor(rho[s]) *
                       starvation *
                       (1.0 + std::abs(rng.normal(0.0, opts.noise)));
      svc_rate[s][t] = rate[s] * (1.0 + rng.normal(0.0, opts.noise));
    }

    // End-to-end latency per service via the call graph: repeated relaxation
    // L(s) = own(s) + sum over callees fanout * L(callee). Call graphs are
    // DAGs so |V| passes converge.
    total_latency = own_latency;
    for (std::size_t pass = 0; pass < num_s; ++pass) {
      bool changed = false;
      for (std::size_t s = 0; s < num_s; ++s) {
        double l = own_latency[s];
        for (const CallEdge* e : calls_of[s])
          l += e->calls_per_request * total_latency[e->callee];
        if (std::abs(l - total_latency[s]) > 1e-9) changed = true;
        total_latency[s] = l;
      }
      if (!changed) break;
    }
    for (std::size_t s = 0; s < num_s; ++s) svc_latency[s][t] = total_latency[s];

    // Container metrics.
    for (std::size_t c = 0; c < num_c; ++c) {
      const ContainerSpec& spec = app.containers[c];
      const double util =
          ctr_demand[c] / std::max(spec.cpu_limit_cores, 1e-9);
      ctr_cpu[c][t] = std::clamp(util, 0.0, 1.5) * 100.0 *
                      (1.0 + rng.normal(0.0, opts.noise));
      double mem = 0.0, disk = 0.0, net = 0.0;
      for (const std::size_t s : services_of[c]) {
        mem += app.services[s].mem_base +
               app.services[s].mem_per_rps * rate[s];
        net += rate[s] * 0.01;  // ~10 KB per request
        disk += rate[s] * 0.002;
      }
      mem += pressure[c].mem_fraction;
      disk += pressure[c].disk_mbps;
      ctr_mem[c][t] = std::clamp(mem, 0.0, 1.2) * 100.0 *
                      (1.0 + rng.normal(0.0, opts.noise));
      ctr_disk[c][t] = disk * (1.0 + std::abs(rng.normal(0.0, opts.noise)));
      ctr_net[c][t] = net * (1.0 + rng.normal(0.0, opts.noise));
    }

    // Client-observed latency = entry service end-to-end latency (+ network).
    for (std::size_t cl = 0; cl < num_cl; ++cl) {
      const ServiceIdx entry = app.clients[cl].entry_service;
      cl_latency[cl][t] = total_latency[entry] + 0.5 +
                          std::abs(rng.normal(0.0, 0.2));
      cl_rate[cl][t] = app.clients[cl].rps_schedule[t];
    }
  }

  // --- write series into the db ---------------------------------------------
  auto& cat = db.catalog();
  const auto m_lat = cat.intern(telemetry::metrics::kLatency);
  const auto m_rate = cat.intern(telemetry::metrics::kRequestRate);
  const auto m_cpu = cat.intern(telemetry::metrics::kCpuUtil);
  const auto m_mem = cat.intern(telemetry::metrics::kMemUtil);
  const auto m_disk = cat.intern(telemetry::metrics::kDiskIo);
  const auto m_net = cat.intern(telemetry::metrics::kNetTx);

  for (std::size_t s = 0; s < num_s; ++s) {
    db.metrics().put(ents.services[s], m_lat, svc_latency[s]);
    db.metrics().put(ents.services[s], m_rate, svc_rate[s]);
  }
  for (std::size_t c = 0; c < num_c; ++c) {
    db.metrics().put(ents.containers[c], m_cpu, ctr_cpu[c]);
    db.metrics().put(ents.containers[c], m_mem, ctr_mem[c]);
    db.metrics().put(ents.containers[c], m_disk, ctr_disk[c]);
    db.metrics().put(ents.containers[c], m_net, ctr_net[c]);
  }
  for (std::size_t n = 0; n < num_n; ++n)
    db.metrics().put(ents.nodes[n], m_cpu, node_cpu[n]);
  for (std::size_t cl = 0; cl < num_cl; ++cl) {
    db.metrics().put(ents.clients[cl], m_lat, cl_latency[cl]);
    db.metrics().put(ents.clients[cl], m_rate, cl_rate[cl]);
  }

  result.client_latency = std::move(cl_latency);
  result.container_util = std::move(ctr_cpu);
  return result;
}

}  // namespace murphy::emulation
