"""Experiment harness: configuration, suites, and reports."""

from .config import KINDS, ConfigError, ExperimentConfig, load_config
from .report import ExperimentReport, emit_report, read_csv_sections, render_csv, render_json
from .suites import SUITES, run_suite

__all__ = [
    "KINDS",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "SUITES",
    "emit_report",
    "load_config",
    "read_csv_sections",
    "render_csv",
    "render_json",
    "run_suite",
]
