"""Virtual clock, timer ticks, and yieldpoint mechanics."""

from repro.frontend.codegen import compile_source
from repro.vm.config import j9_config, jikes_config
from repro.vm.interpreter import Interpreter
from repro.vm.yieldpoint import BACKEDGE, EPILOGUE, PROLOGUE, YP_ALL, YP_NONE

LOOPY = """
def work(x: int): int { return x + 1; }
def main() {
  var t = 0;
  for (var i = 0; i < 60000; i = i + 1) { t = work(t); }
  print(t);
}
"""

CALL_FREE = """
def main() {
  var t = 0;
  for (var i = 0; i < 120000; i = i + 1) { t = (t + i) % 1000; }
  print(t);
}
"""


class RecordingProfiler:
    """Captures timer and yieldpoint events for assertions."""

    def __init__(self, take_all: bool = True):
        self.ticks = 0
        self.events = []
        self.take_all = take_all

    def attach(self, vm):
        pass

    def handle_timer(self, vm):
        self.ticks += 1
        if self.take_all:
            vm.yieldpoint_flag = YP_ALL

    def handle_yieldpoint(self, vm, kind):
        self.events.append(kind)
        vm.yieldpoint_flag = YP_NONE


def run_with(source, config, profiler):
    vm = Interpreter(compile_source(source), config)
    vm.attach_profiler(profiler)
    vm.run()
    return vm


def test_tick_count_matches_time():
    profiler = RecordingProfiler()
    vm = run_with(LOOPY, jikes_config(), profiler)
    assert profiler.ticks == vm.ticks
    assert vm.ticks == vm.time // vm.config.timer_interval


def test_ticks_scale_with_interval():
    short = run_with(LOOPY, jikes_config(timer_interval=50_000), RecordingProfiler())
    long_ = run_with(LOOPY, jikes_config(timer_interval=200_000), RecordingProfiler())
    assert short.ticks > long_.ticks


def test_one_yieldpoint_taken_per_tick_when_cleared():
    profiler = RecordingProfiler()
    vm = run_with(LOOPY, jikes_config(), profiler)
    # The handler clears the flag, so takes == ticks (modulo program end).
    assert abs(len(profiler.events) - vm.ticks) <= 1


def test_prologue_and_epilogue_events_seen_jikes():
    profiler = RecordingProfiler()
    run_with(LOOPY, jikes_config(), profiler)
    kinds = set(profiler.events)
    assert PROLOGUE in kinds or EPILOGUE in kinds


def test_backedge_events_in_call_free_code_jikes():
    profiler = RecordingProfiler()
    run_with(CALL_FREE, jikes_config(), profiler)
    # With no calls, only backedge yieldpoints can be taken.
    assert set(profiler.events) == {BACKEDGE}
    assert len(profiler.events) > 0


def test_j9_has_no_backedge_or_epilogue_yieldpoints():
    profiler = RecordingProfiler()
    run_with(LOOPY, j9_config(), profiler)
    kinds = set(profiler.events)
    assert BACKEDGE not in kinds
    assert EPILOGUE not in kinds
    assert PROLOGUE in kinds


def test_j9_call_free_code_never_takes_yieldpoints():
    profiler = RecordingProfiler()
    vm = run_with(CALL_FREE, j9_config(), profiler)
    assert profiler.events == []
    assert vm.ticks > 0  # the timer still fires; nothing notices


def test_flag_stays_set_until_yieldpoint():
    # With take_all=False, the flag is never set and no events occur.
    profiler = RecordingProfiler(take_all=False)
    vm = run_with(LOOPY, jikes_config(), profiler)
    assert profiler.events == []
    assert profiler.ticks == vm.ticks


def test_profiler_charges_advance_time():
    class ChargingProfiler(RecordingProfiler):
        def handle_timer(self, vm):
            super().handle_timer(vm)
            vm.charge(1000)

    plain_vm = run_with(LOOPY, jikes_config(), RecordingProfiler())
    charged_vm = run_with(LOOPY, jikes_config(), ChargingProfiler())
    assert charged_vm.time > plain_vm.time


def test_timer_service_cost_charged_per_tick():
    config = jikes_config()
    vm = Interpreter(compile_source(CALL_FREE), config)
    vm.run()
    base_time = vm.time
    # With no profiler at all the ticks still cost timer_service_cost.
    assert base_time >= vm.ticks * config.cost_model.timer_service_cost


def test_dedicated_entry_check_costs_more():
    overloaded = Interpreter(compile_source(LOOPY), jikes_config())
    overloaded.run()
    dedicated = Interpreter(
        compile_source(LOOPY), jikes_config(overloaded_entry_check=False)
    )
    dedicated.run()
    assert dedicated.time > overloaded.time
    # Exactly 3 units per dynamic call.
    delta = dedicated.time - overloaded.time
    expected = 3 * dedicated.call_count
    # Timer service costs may differ slightly due to different tick counts.
    assert abs(delta - expected) <= 200


def test_stack_snapshot_and_current_edge():
    source = """
    def inner(): int { return 1; }
    def outer(): int { return inner(); }
    def main() { print(outer()); }
    """

    class SnapshotProfiler(RecordingProfiler):
        def __init__(self):
            super().__init__()
            self.snapshots = []

        def handle_yieldpoint(self, vm, kind):
            stack = [frame.method.index for frame in reversed(vm.frames)]
            self.snapshots.append((stack, vm.current_edge()))
            vm.yieldpoint_flag = YP_NONE

    program = compile_source(source)
    vm = Interpreter(program, jikes_config(timer_interval=50))
    profiler = SnapshotProfiler()
    vm.attach_profiler(profiler)
    vm.run()
    assert profiler.snapshots
    for snapshot, edge in profiler.snapshots:
        assert snapshot[-1] == program.entry_index  # main at the bottom
        if edge is not None:
            caller, pc, callee = edge
            assert 0 <= caller < len(program.functions)
            assert 0 <= callee < len(program.functions)
