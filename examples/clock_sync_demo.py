#!/usr/bin/env python3
"""Offline clock synchronization demo (Section 2.5).

Builds two hosts with known clock offset and drift, exchanges
synchronization messages through the simulated LAN, estimates the
guaranteed [alpha-, alpha+] x [beta-, beta+] bounds, and shows that the
true clock parameters — and the true global time of an event — always lie
inside the estimated bounds.
"""

from repro.analysis.clock_sync import estimate_clock_bounds
from repro.core.runtime.syncphase import SyncPhaseConfig, run_sync_phase
from repro.sim.clock import ClockParameters
from repro.sim.environment import Environment


def main() -> None:
    environment = Environment(seed=11)
    reference_clock = ClockParameters(offset=0.004, rate=1.00006)
    other_clock = ClockParameters(offset=-0.002, rate=0.99993)
    environment.add_host("ref", clock=reference_clock)
    environment.add_host("other", clock=other_clock)

    config = SyncPhaseConfig(messages_per_phase=25)
    messages = run_sync_phase(environment, "ref", ("ref", "other"), config)
    # Let the "experiment" run for a second, then run the closing mini-phase.
    environment.run(until=environment.kernel.now + 1.0)
    # It appends to the opening one's table, as the campaign runner does.
    run_sync_phase(environment, "ref", ("ref", "other"), config, messages)

    bounds = estimate_clock_bounds(messages, "other", "ref")
    true_alpha, true_beta = environment.host("other").clock.relative_to(
        environment.host("ref").clock
    )

    print(f"synchronization messages used: {len(messages)}")
    print(f"alpha bounds: [{bounds.alpha_lower:+.6f}, {bounds.alpha_upper:+.6f}]  "
          f"(width {bounds.alpha_width * 1e6:.1f} us)   true alpha {true_alpha:+.6f}")
    print(f"beta  bounds: [{bounds.beta_lower:.8f}, {bounds.beta_upper:.8f}]  "
          f"(width {bounds.beta_width:.2e})   true beta  {true_beta:.8f}")
    print(f"bounds contain the true clock parameters: {bounds.contains(true_alpha, true_beta)}")

    physical_event_time = 0.6
    local = environment.host("other").clock.read(physical_event_time)
    lower, upper = bounds.project_to_reference(local)
    truth = environment.host("ref").clock.read(physical_event_time)
    print(f"\nevent at physical t={physical_event_time}s, local clock {local:.6f}s")
    print(f"projected reference-time bounds: [{lower:.6f}, {upper:.6f}] "
          f"(width {(upper - lower) * 1e6:.1f} us)")
    print(f"true reference time {truth:.6f} inside bounds: {lower <= truth <= upper}")


if __name__ == "__main__":
    main()
