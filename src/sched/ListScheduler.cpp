//===- sched/ListScheduler.cpp --------------------------------------------===//

#include "sched/ListScheduler.h"

#include "sched/ScheduleValidate.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace metaopt;

// The latency/delay/enforcement model lives in sched/ScheduleValidate.cpp
// (schedEffectiveLatencies, schedEdgeDelay, schedEdgeEnforced) so that
// validateListSchedule re-derives the same constraints independently of
// this scheduler's bookkeeping.

void metaopt::listScheduleHeights(const Loop &L, const DependenceGraph &DG,
                                  const std::vector<int> &EffectiveLatency,
                                  std::vector<int> &Height) {
  uint32_t N = static_cast<uint32_t>(DG.numNodes());
  Height.assign(N, 0);
  for (uint32_t Node = N; Node-- > 0;) {
    Height[Node] = EffectiveLatency[Node];
    for (uint32_t EdgeIdx : DG.successors(Node)) {
      const DepEdge &Edge = DG.edge(EdgeIdx);
      if (!schedEdgeEnforced(L, Edge))
        continue;
      int Delay = schedEdgeDelay(Edge, L, EffectiveLatency);
      Height[Node] = std::max(Height[Node], Delay + Height[Edge.Dst]);
    }
  }
}

uint32_t metaopt::finalizeListSchedule(const std::vector<uint32_t> &CycleOf,
                                       std::vector<uint32_t> &Order) {
  uint32_t N = static_cast<uint32_t>(CycleOf.size());
  Order.resize(N);
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    if (CycleOf[A] != CycleOf[B])
      return CycleOf[A] < CycleOf[B];
    return A < B;
  });
  uint32_t LastCycle = 0;
  for (uint32_t Node = 0; Node < N; ++Node)
    LastCycle = std::max(LastCycle, CycleOf[Node]);
  return LastCycle + 1;
}

Schedule metaopt::listSchedule(const Loop &L, const DependenceGraph &DG,
                               const MachineModel &Machine) {
  size_t N = DG.numNodes();
  Schedule Result;
  Result.CycleOf.assign(N, 0);
  if (N == 0)
    return Result;

  auto Enforced = [&](const DepEdge &Edge) {
    return schedEdgeEnforced(L, Edge);
  };

  std::vector<int> EffectiveLatency = schedEffectiveLatencies(L, DG, Machine);
  std::vector<int> Height;
  listScheduleHeights(L, DG, EffectiveLatency, Height);

  // Remaining enforced predecessor counts and earliest-issue constraints.
  std::vector<int> PredsLeft(N, 0);
  for (const DepEdge &Edge : DG.edges())
    if (Enforced(Edge))
      ++PredsLeft[Edge.Dst];

  std::vector<uint32_t> EarliestCycle(N, 0);
  std::vector<bool> Done(N, false);
  std::vector<uint32_t> Ready;
  for (uint32_t Node = 0; Node < N; ++Node)
    if (PredsLeft[Node] == 0)
      Ready.push_back(Node);

  ResourceTable Resources(Machine);
  size_t Scheduled = 0;
  uint32_t Cycle = 0;
  // Guard against livelock; any body schedules in far fewer cycles.
  uint32_t CycleCap = static_cast<uint32_t>(64 * N + 1024);

  while (Scheduled < N && Cycle < CycleCap) {
    // Candidates ready this cycle, highest priority first.
    std::vector<uint32_t> Candidates;
    for (uint32_t Node : Ready)
      if (!Done[Node] && EarliestCycle[Node] <= Cycle)
        Candidates.push_back(Node);
    std::sort(Candidates.begin(), Candidates.end(), HeightPriority{Height});

    for (uint32_t Node : Candidates) {
      if (!Resources.tryIssue(L.body()[Node]))
        continue;
      Done[Node] = true;
      Result.CycleOf[Node] = Cycle;
      ++Scheduled;
      for (uint32_t EdgeIdx : DG.successors(Node)) {
        const DepEdge &Edge = DG.edge(EdgeIdx);
        if (!Enforced(Edge))
          continue;
        uint32_t ReadyAt =
            Cycle +
            static_cast<uint32_t>(schedEdgeDelay(Edge, L, EffectiveLatency));
        EarliestCycle[Edge.Dst] =
            std::max(EarliestCycle[Edge.Dst], ReadyAt);
        if (--PredsLeft[Edge.Dst] == 0)
          Ready.push_back(Edge.Dst);
      }
    }
    Resources.nextCycle();
    ++Cycle;
  }
  assert(Scheduled == N && "list scheduler failed to place all operations");

  Result.Length = finalizeListSchedule(Result.CycleOf, Result.Order);
  return Result;
}
