"""The public surface, pinned: every name the package exports, every
public function or class each module defines, and every public method or
property those classes define.  Adding or removing an entry point has to
edit these lists, so the change shows in review."""

import importlib
import inspect
import pkgutil
from functools import cached_property

import greenindex

EXPORTS = [
    "AutomaticStructure",
    "BlackBoxSemigroup",
    "ConnectorTables",
    "FiniteSemigroup",
    "Generated",
    "GreenData",
    "HClassFamily",
    "Homomorphism",
    "Nfa",
    "PaddedRelationNfa",
    "Presentation",
    "RewriteTrace",
    "SchutzGroup",
    "SubSemigroup",
    "WordProblemContext",
    "build_schutz_packs",
    "check_L_R_transport",
    "class_group",
    "closure",
    "connectors",
    "convolve",
    "deconvolve",
    "domination_check",
    "eggbox_dot",
    "enumerate_presentation",
    "extended_generators",
    "generated",
    "growth_function",
    "is_cancellative",
    "is_group",
    "lambda_data",
    "out_ball",
    "presentation_from_table",
    "push_left",
    "push_right",
    "rees_index",
    "relative_green",
    "schreier_generators",
    "schutz_generators",
    "schutz_group",
    "strong_semilattice",
    "structure_for_finite",
    "sub_table_presentation",
    "synthesize_presentation",
    "transfer_details",
    "validate_table",
    "verify_presentation",
    "word_equality_report",
    "word_problem_context",
]

DEFINED = {
    "automatic": [
        "AutomaticStructure",
        "Nfa",
        "PaddedRelationNfa",
        "PairAlphabet",
        "TransferLetters",
        "TransferResult",
        "convolve",
        "deconvolve",
        "nfa_from_json",
        "nfa_from_words",
        "nfa_to_json",
        "structure_for_finite",
        "structure_from_json",
        "structure_to_json",
        "transfer_details",
        "verify_structure_report",
    ],
    "cli": [
        "build_parser",
        "cmd_auto_build",
        "cmd_auto_transfer",
        "cmd_auto_verify",
        "cmd_connectors",
        "cmd_eggbox",
        "cmd_green_index",
        "cmd_growth_dominate",
        "cmd_growth_series",
        "cmd_present_enumerate",
        "cmd_present_synth",
        "cmd_present_verify",
        "cmd_rewrite",
        "cmd_schreier",
        "cmd_schutz",
        "cmd_validate",
        "cmd_wp",
        "main",
    ],
    "core": [
        "BlackBoxSemigroup",
        "FiniteSemigroup",
        "Generated",
        "Homomorphism",
        "SubSemigroup",
        "closure",
        "generated",
        "is_cancellative",
        "is_group",
        "strong_semilattice",
        "validate_table",
    ],
    "errors": [
        "AlphabetMismatch",
        "BadInputPresentation",
        "BoundExceeded",
        "BudgetExceeded",
        "DaggerViolation",
        "DelayExceeded",
        "DomainMismatch",
        "EmptyGenerators",
        "GreenIndexError",
        "HypothesisFails",
        "InputError",
        "InternalInconsistency",
        "InvalidHomomorphism",
        "InvalidLetter",
        "NotAnHClass",
        "NotAssociative",
        "NotClosed",
        "NotComparable",
        "NotGenerating",
        "NotInSubsemigroup",
        "OutOfRange",
    ],
    "factories": [
        "collapse_to_trivial",
        "direct_product",
        "full_transformation_monoid",
        "left_zero",
        "mod_reduction",
        "monogenic",
        "rectangular_band",
        "right_zero",
        "symmetric_group",
        "trivial",
        "zmod",
    ],
    "growth": [
        "DominationReport",
        "domination_check",
        "growth_function",
        "out_ball",
    ],
    "present": [
        "ClassPack",
        "EnumerationResult",
        "Presentation",
        "build_schutz_packs",
        "enumerate_presentation",
        "evaluate_word",
        "parse_word",
        "presentation_from_table",
        "sub_table_presentation",
        "synthesize_presentation",
        "verify_presentation",
        "word_problem_context",
    ],
    "relgreen": [
        "ConnectorTables",
        "GreenData",
        "connectors",
        "eggbox_dot",
        "rees_index",
        "relative_green",
    ],
    "rewrite": [
        "RewriteTrace",
        "WordProblemContext",
        "WordVerdict",
        "extended_generators",
        "push_left",
        "push_right",
        "schreier_generators",
        "word_equality_report",
    ],
    "schutz": [
        "HClassFamily",
        "SchutzGroup",
        "TransportReport",
        "check_L_R_transport",
        "class_group",
        "find_generating_set",
        "lambda_data",
        "schutz_generators",
        "schutz_group",
    ],
}

# "module.Class" -> its public methods and properties; classes with none
# are left out
MEMBERS = {
    "automatic.AutomaticStructure": ["eval_word"],
    "automatic.Nfa": ["accepts", "iter_words", "step"],
    "automatic.PaddedRelationNfa": ["from_pairs"],
    "automatic.PairAlphabet": ["rank"],
    "core.BlackBoxSemigroup": ["encode", "spot_check_associativity"],
    "core.FiniteSemigroup": [
        "elements", "from_json_dict", "mul", "mul1", "name_of", "prod1",
        "to_json_dict"],
    "core.Generated": ["members", "word"],
    "core.SubSemigroup": [
        "complement", "sorted_members", "t_one", "to_json_dict"],
    "present.Presentation": ["from_json_dict", "to_json_dict"],
    "relgreen.GreenData": ["class_count", "class_of", "h_class_of", "rep_of"],
    "schutz.HClassFamily": ["act"],
    "schutz.SchutzGroup": ["order", "quotient_index"],
}

_MEMBER_KINDS = (property, cached_property, staticmethod, classmethod)


def test_package_exports():
    # submodules are attributes once imported anywhere, so they are skipped
    exported = sorted(
        name for name, obj in vars(greenindex).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    )
    assert exported == EXPORTS


def test_module_definitions():
    modules = sorted(m.name for m in pkgutil.iter_modules(greenindex.__path__))
    assert modules == sorted(DEFINED)
    for name in modules:
        mod = importlib.import_module(f"greenindex.{name}")
        defined = sorted(
            attr for attr, obj in vars(mod).items()
            if not attr.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__
        )
        assert defined == DEFINED[name], name


def test_class_members():
    members = {}
    for name in DEFINED:
        mod = importlib.import_module(f"greenindex.{name}")
        for attr in DEFINED[name]:
            cls = getattr(mod, attr)
            if not inspect.isclass(cls):
                continue
            public = sorted(
                m for m, obj in vars(cls).items()
                if not m.startswith("_")
                and (inspect.isfunction(obj) or isinstance(obj, _MEMBER_KINDS))
            )
            if public:
                members[f"{name}.{attr}"] = public
    assert members == MEMBERS
