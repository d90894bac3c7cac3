"""The public surface, pinned: every callable `spinorbit` exports, with the names of
its parameters, and of the parameters of each public method of an exported class.

An option added or removed shows up here as a diff of `SURFACE`.
"""

import inspect

import pytest

import spinorbit
from spinorbit import basis_state, classify, compile_bench, make_space, parse, run

#: an exception class that keeps its builtin base's constructor takes the message
_MESSAGE = ("*args",)

SURFACE = {
    # deutsch
    "OamSorterProbs": ("p_plus", "p_minus", "residual"),
    "RunReport": ("oracle_id", "measurement", "p_d1", "p_d2", "p_plus", "p_minus", "residual",
                  "survival", "verdict", "output_fidelity", "shots"),
    "RunReport.to_dict": ("self",),
    "ShotTally": ("shots", "seed", "n_d1", "n_d2", "n_lost", "n_residual"),
    "ShotTally.to_dict": ("self",),
    "classify": ("p_balanced_port", "p_constant_port"),
    "expected_output": ("space", "oracle_id"),
    "measure_oam_superposition": ("state",),
    "measure_pbs": ("state",),
    "prepare_input": ("space",),
    "run": ("oracle_id", "eta", "crosstalk", "shots", "seed", "l_max", "measurement"),
    "sample_counts": ("probabilities", "shots", "seed"),
    # dsl
    "BenchFile": ("l_max", "polarizer", "hologram", "elements", "measure"),
    "CompiledBench": ("space", "preparation", "elements", "measure"),
    "ParseError": ("line", "column", "message", "token"),
    "Preparation": ("axis", "oams"),
    "Preparation.initial_state": ("self", "space"),
    "compile_bench": ("bench",),
    "parse": ("text",),
    "parse_with_errors": ("text",),
    "render": ("bench",),
    # elements
    "QPlateSpec": ("q", "eta"),
    "WaveplateSpec": ("theta", "aperture", "crosstalk"),
    "dove_prism": ("space", "label"),
    "hwp": ("space", "spec", "label"),
    "lens": ("space", "label"),
    "qplate": ("space", "spec", "label"),
    # errors
    "BenchParseError": ("errors",),
    "CompileError": _MESSAGE,
    "EncodingError": _MESSAGE,
    "GateBrokenError": _MESSAGE,
    "SpinOrbitError": _MESSAGE,
    "TruncationError": _MESSAGE,
    # logic
    "OracleBench": ("oracle_id", "elements"),
    "build_oracle": ("space", "oracle_id", "eta", "crosstalk"),
    "decode": ("state",),
    "encode": ("space", "bits"),
    "logical_matrix": ("oracle_id",),
    "oracle_class": ("oracle_id",),
    "truth_table": ("bench",),
    # reference
    "TwoQubitState": ("amplitudes",),
    "apply_uf": ("state", "function"),
    "classify_abstract": ("function",),
    "computational_state": ("x", "y"),
    "hadamard_both": ("state",),
    # state
    # blocks of shape (1, 2, 2), one for every l, or (2, 2, 2), the second at l = 0
    "ElementOp": ("space", "survival_factor", "label", "input_mask", "source", "blocks"),
    "ModeSpace": ("l_max",),
    "ModeSpace.index": ("self", "pol", "l"),
    "ModeSpace.basis_label": ("self", "index"),
    "PhotonState": ("space", "amplitudes", "survival"),
    "PhotonState.amplitude": ("self", "pol", "l"),
    "PhotonState.components": ("self",),
    "apply": ("op", "state"),
    "apply_chain": ("ops", "state"),
    "basis_state": ("space", "pol", "l"),
    "compose": ("ops",),
    "fidelity_up_to_phase": ("a", "b"),
    "make_space": ("l_max",),
}


def _parameters(obj) -> tuple:
    if inspect.isclass(obj) and issubclass(obj, BaseException) and not inspect.isfunction(
            obj.__init__):
        return _MESSAGE  # a builtin constructor, which inspect reads differently across Pythons
    return tuple(inspect.signature(obj).parameters)


def _surface() -> dict:
    surface = {}
    for name, obj in vars(spinorbit).items():
        if name.startswith("_") or not callable(obj):
            continue
        surface[name] = _parameters(obj)
        for method in vars(obj) if inspect.isclass(obj) else ():
            if not method.startswith("_") and inspect.isroutine(getattr(obj, method)):
                surface[f"{name}.{method}"] = _parameters(getattr(obj, method))
    return surface


def test_the_public_surface_is_pinned():
    assert _surface() == SURFACE


def test_the_options_no_caller_set_are_gone():
    # the verdict rule, compile_bench's truncation and components' cutoff are constants
    with pytest.raises(TypeError):
        run("identity", threshold=0.99)
    with pytest.raises(TypeError):
        classify(0.2, 0.8, threshold=0.99)
    with pytest.raises(TypeError):
        classify(0.2, 0.8, 0.99)
    bench = parse("space lmax=6\nlens\n")
    with pytest.raises(TypeError):
        compile_bench(bench, make_space(6))
    with pytest.raises(TypeError):
        compile_bench(bench, space=make_space(6))
    with pytest.raises(TypeError):
        list(basis_state(make_space(6), "L", 0).components(tol=1e-12))
    assert not hasattr(spinorbit.build_oracle(make_space(6), "not"), "inserted")
