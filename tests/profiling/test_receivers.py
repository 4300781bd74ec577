"""ReceiverProfile: exact per-call-site receiver counts from the ICs."""

from repro.bytecode.opcodes import Op
from repro.frontend.codegen import compile_source
from repro.profiling.dcg import DCG
from repro.profiling.exhaustive import ExhaustiveProfiler
from repro.profiling.receivers import ReceiverProfile
from repro.vm.config import jikes_config
from repro.vm.interpreter import Interpreter


def poly_source(num_classes: int, iterations: int = 96) -> str:
    lines = ["class V0 { def f(x: int): int { return x + 1; } }"]
    for k in range(1, num_classes):
        lines.append(
            f"class V{k} extends V0 "
            f"{{ def f(x: int): int {{ return x + {k + 1}; }} }}"
        )
    lines.append("def main() {")
    lines.append("  var objs = new V0[16];")
    for i in range(16):
        lines.append(f"  objs[{i}] = new V{i % num_classes}();")
    lines.append("  var t = 0;")
    lines.append(
        f"  for (var i = 0; i < {iterations}; i = i + 1) "
        "{ t = (t + objs[i % 16].f(t)) % 65521; }"
    )
    lines.append("  print(t);")
    lines.append("}")
    return "\n".join(lines)


def exact_dcg(profile, program):
    """The profile's virtual edges as a DCG, callees resolved through
    the flat dispatch tables."""
    dcg = DCG()
    for caller, pc in profile.sites:
        for callee, count in profile.callee_distribution(program, caller, pc).items():
            dcg.record(caller, pc, callee, count)
    return dcg


def run_with_ics(source):
    program = compile_source(source)
    vm = Interpreter(program, jikes_config())
    profiler = ExhaustiveProfiler()
    profiler.install(vm)
    vm.run()
    return program, vm, profiler


def test_profile_is_exact_against_exhaustive_counts():
    """The IC receiver counts, resolved to callees through the flat
    dispatch tables, agree edge-for-edge with an exhaustive (every
    call) profiler restricted to virtual sites — exactness, not
    sampling."""
    program, vm, exhaustive = run_with_ics(poly_source(4))
    profile = ReceiverProfile.from_cache(vm.code_cache)
    total = sum(sum(counts.values()) for counts in profile.sites.values())
    assert total == vm.code_cache.receiver_cell_total()
    exact_edges = exact_dcg(profile, program).edges()
    virtual_edges = {
        edge: weight
        for edge, weight in exhaustive.dcg.edges().items()
        if program.functions[edge[0]].code[edge[1]].op is Op.CALL_VIRTUAL
    }
    assert exact_edges == virtual_edges


def test_megamorphic_sites_keep_counting():
    program, vm, _ = run_with_ics(poly_source(16, iterations=160))
    profile = ReceiverProfile.from_cache(vm.code_cache)
    site, total = profile.hot_sites(1)[0]
    assert total == 160
    assert len(profile.site_counts(*site)) == 16


def test_site_overlap_bounds():
    """Overlap is 100 for an identical distribution, 0 for a profiler
    that never observed the site, and strictly between for a skewed
    sample of a real distribution."""
    program, vm, _ = run_with_ics(poly_source(4))
    profile = ReceiverProfile.from_cache(vm.code_cache)
    (caller, pc), _ = profile.hot_sites(1)[0]
    assert profile.site_overlap(program, exact_dcg(profile, program), caller, pc) == 100.0
    assert profile.site_overlap(program, DCG(), caller, pc) == 0.0
    skewed = DCG()
    callees = list(profile.callee_distribution(program, caller, pc))
    skewed.record(caller, pc, callees[0], 1.0)  # sampler only ever saw one target
    overlap = profile.site_overlap(program, skewed, caller, pc)
    assert 0.0 < overlap < 100.0


def test_callee_distribution_ignores_non_virtual_sites():
    program, vm, _ = run_with_ics(poly_source(2))
    profile = ReceiverProfile.from_cache(vm.code_cache)
    main = program.function_index("main")
    static_pcs = [
        pc
        for pc, instr in enumerate(program.functions[main].code)
        if instr.op is Op.CALL_STATIC
    ]
    for pc in static_pcs:
        assert profile.callee_distribution(program, main, pc) == {}
