"""Evaluation studies: student faults, component coverage, ablations."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ablation": ("AblationResult", "LabelComparison", "compare_np_labels",
                  "run_ablation"),
    ".components": ("CONCEPTUAL_COMPONENTS", "SAGE_CONCEPTUAL_SUPPORT",
                    "SAGE_SYNTACTIC_SUPPORT", "SYNTACTIC_COMPONENTS",
                    "DetectedComponents", "conceptual_rows", "detect_all",
                    "detect_components", "syntactic_rows"),
    ".student_study": ("FaultyICMP", "StudentOutcome", "StudyResult",
                       "checksum_interpretation_study", "classify",
                       "evaluate_implementation", "faulty_cohort",
                       "run_study"),
})
