"""dax-kernel: exact group-ring calculus for embedding-space invariants.

Computes the abelian groups that classify multi-parameter families of
knotted arcs and circles in a manifold: dax values of translated sphere
classes, relation sets over a generator window, Smith-normal-form quotient
structure, trace evaluation, the concordance fold, and type-1 universality.
"""

from .errors import (
    BallOverflowError,
    DaxKernelError,
    GroupParseError,
    ModeError,
    PairingDataError,
    SceneError,
    SpecMismatchError,
    UnknownGeneratorError,
    UnsupportedClassError,
    UsageError,
    WindowOverflowError,
)
from .groups import (
    GroupSpec,
    Word,
    ball,
    inv,
    mul,
    normalize,
    parse_group_spec,
    parse_word,
    render_word,
)
from .ring import (
    RingElem,
    gr_add,
    gr_bar_reduce,
    gr_conj,
    gr_involute,
    monomial,
    parse_ring,
    render_ring,
)
from .pairing import (
    lambda_arc,
    lambda_flip,
    lambda_word,
    lambdabar_conj_shift,
)
from .calculus import (
    arcs_context,
    circles_context,
    dax_boundary_sphere,
    dax_rebase,
    dax_translate,
    dax_u_embedded,
    dax_u_general,
    rebase_context,
)
from .quotient import (
    AbelianStructure,
    OrbitAction,
    RelationSet,
    build_rel_3mfd,
    build_rel_arcs,
    build_rel_circles,
    centralizer_orbit_reduce,
    concordance_quotient,
    quotient_structure,
)
from .traces import (
    HomotopyTrace,
    KnotRecord,
    dax_of_knot,
    eval_dax_trace,
    mu2_reduce,
    universality_witness,
)
from .scene import ManifoldScene, make_scene, preset_expand

__version__ = "0.1.0"


def __getattr__(name):
    # run_scene is loaded on first use, so that `python -m daxkernel.cli` does
    # not find the module half-imported and `import daxkernel` stays light
    if name == "run_scene":
        from .cli import run_scene
        return run_scene
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
