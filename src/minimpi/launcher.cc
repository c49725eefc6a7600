#include "minimpi/launcher.h"

#include <sstream>

#include "minimpi/fiber.h"
#include "minimpi/match_scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace compi::minimpi {

rt::Outcome RunResult::job_outcome() const {
  for (const RankResult& r : ranks) {
    if (rt::is_fault(r.outcome)) return r.outcome;
  }
  return rt::Outcome::kOk;
}

std::string RunResult::job_message() const {
  for (const RankResult& r : ranks) {
    if (rt::is_fault(r.outcome)) return r.message;
  }
  return {};
}

const rt::TestLog& RunResult::focus_log() const { return ranks[focus].log; }

rt::CoverageBitmap RunResult::merged_coverage() const {
  rt::CoverageBitmap merged;
  for (const RankResult& r : ranks) merged.merge(r.log.covered);
  return merged;
}

RunResult launch(const LaunchSpec& spec, const rt::BranchTable& table) {
  obs::ObsSpan launch_span(obs::Cat::kLaunch, "launch", "nprocs",
                           spec.nprocs);
  const auto t0 = std::chrono::steady_clock::now();
  World world(spec.nprocs, spec.timeout, spec.chaos);
  if (spec.match_schedule) world.enable_match_scheduler(spec.match_plan);
  auto world_shared = make_world_shared(world);

  RunResult result;
  result.focus = spec.focus;
  result.ranks.resize(spec.nprocs);

  const solver::Assignment empty_inputs;
  auto rank_body = [&](int rank) {
    // Track `track_base` is the owning driver/worker; rank r gets the
    // track_base-relative track r + 1 (base 0: the classic serial layout).
    obs::ScopedTrack track(spec.track_base + rank + 1);
    obs::ObsSpan rank_span(obs::Cat::kExecute, "rank_body", "rank", rank);
    const bool heavy = spec.one_way || rank == spec.focus;
    rt::ContextParams params;
    params.mode = heavy ? rt::Mode::kHeavy : rt::Mode::kLight;
    params.table = &table;
    params.registry = spec.registry;
    params.inputs = spec.inputs != nullptr ? spec.inputs : &empty_inputs;
    params.rng_seed = spec.rng_seed;
    params.step_budget = spec.step_budget;
    params.reduction = spec.reduction;
    params.mark_mpi_vars = spec.mark_mpi_vars;

    rt::RuntimeContext ctx(params);
    ctx.set_identity(rank, spec.nprocs);
    Comm comm = make_world_comm(world_shared, rank);

    RankResult& out = result.ranks[rank];
    try {
      spec.program(ctx, comm);
      ctx.finish(rt::Outcome::kOk);
    } catch (const rt::SimulatedFault& f) {
      ctx.finish(f.outcome(), f.what());
      world.abort();
    } catch (const JobAborted&) {
      // Distinguish "a peer faulted" from "the whole job hit the deadline".
      if (world.aborted()) {
        ctx.finish(rt::Outcome::kAborted, "job aborted by a faulting peer");
      } else {
        ctx.finish(rt::Outcome::kTimeout, "test wall-clock timeout");
        world.abort();
      }
    } catch (const std::exception& e) {
      ctx.finish(rt::Outcome::kMpiError, e.what());
      world.abort();
    }
    if (MatchScheduler* sched = world.match_scheduler()) {
      sched->mark_done(rank);
    }
    out.log = ctx.take_log();
    out.outcome = out.log.outcome;
    out.message = out.log.outcome_message;
  };

  FiberScheduler::Body body = rank_body;
  FiberScheduler fibers(spec.nprocs, body);
  // No rank can run: the match scheduler proves a deadlock (or drops a dead
  // prescription); otherwise nothing but the deadline could end the wait,
  // so the job ends now with the deadline's verdict.
  world.run(fibers, [&world] {
    MatchScheduler* sched = world.match_scheduler();
    if (sched == nullptr || !sched->resolve_stuck()) world.expire();
  });

  if (MatchScheduler* sched = world.match_scheduler()) {
    result.match_trace = sched->take_trace();
    result.match_diverged = sched->diverged();
    // Orphan-message check: a job that finished without faulting but left
    // sent messages unreceived has the other silent matching bug.  Faulted
    // jobs are skipped — their leftovers are unwind collateral.
    bool any_fault = false;
    for (const RankResult& r : result.ranks) {
      if (rt::is_fault(r.outcome)) any_fault = true;
    }
    if (!any_fault && !world.aborted()) {
      static obs::Counter& orphans = obs::registry().counter(
          "compi_orphans_total",
          "Jobs finalized with unreceived (orphan) messages");
      for (int r = 0; r < spec.nprocs; ++r) {
        const std::deque<Message> leftover = world.mailbox(r).drain();
        if (leftover.empty()) continue;
        orphans.inc();
        std::ostringstream os;
        os << leftover.size() << " message(s) unreceived at finalize (first:"
           << " src=" << leftover.front().src
           << " tag=" << leftover.front().tag << ")";
        result.ranks[r].outcome = rt::Outcome::kOrphanMessage;
        result.ranks[r].message = os.str();
      }
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace compi::minimpi
