"""Command-line front end for the generation/denoising/evaluation pipeline.

Exit codes: 0 on success, 1 for configuration or input-format problems,
2 when a pipeline stage fails or a required earlier stage has not run or
is stale.
"""
from __future__ import annotations

import logging
import sys

import click

from .config import CHAT_BACKENDS, ConfigError, PipelineConfig, load_config
from .docio import ParseError
from .evaluate import EvaluationError
from .model import ValidationError
from .pipeline import PipelineRunner, StageError
from .split import SplitError


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _runner(ctx: click.Context) -> PipelineRunner:
    opts = ctx.obj
    try:
        config: PipelineConfig = load_config(
            opts["config"],
            run_dir=opts["run_dir"],
            seed=opts["seed"],
            backend=opts["backend"],
        )
    except (ConfigError, ParseError) as exc:
        _fail(str(exc), 1)
    return PipelineRunner(config)


def _execute(ctx: click.Context, stages: list[str] | None, force: bool) -> PipelineRunner:
    runner = _runner(ctx)
    try:
        outcomes = runner.run(stages, force=force)
    except StageError as exc:  # MissingStageError too
        _fail(str(exc), 2)
    except (ParseError, ValidationError, ConfigError, SplitError, EvaluationError) as exc:
        _fail(str(exc), 1)
    for outcome in outcomes:
        note = "" if outcome.status == "ran" else " (up to date)"
        click.echo(f"stage {outcome.stage}: {outcome.status}{note}")
    return runner


@click.group()
@click.option("--config", "config_path", required=True,
              type=click.Path(dir_okay=False),
              help="Pipeline configuration file (JSON, // and /* */ comments allowed).")
@click.option("--run-dir", default=None, type=click.Path(file_okay=False),
              help="Override the run directory from the config.")
@click.option("--seed", default=None, type=int,
              help="Run a single replicate with this seed instead of the configured list.")
@click.option("--backend", default=None, type=click.Choice(CHAT_BACKENDS),
              help="Override the chat transport.")
@click.option("-v", "--verbose", count=True, help="Increase log verbosity (-v, -vv).")
@click.pass_context
def main(ctx: click.Context, config_path: str, run_dir: str | None,
         seed: int | None, backend: str | None, verbose: int) -> None:
    """Generate, denoise, and evaluate zero-shot relation-extraction data."""
    level = {0: logging.WARNING, 1: logging.INFO}.get(verbose, logging.DEBUG)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    ctx.obj = {
        "config": config_path,
        "run_dir": run_dir,
        "seed": seed,
        "backend": backend,
    }


def _stage_command(name: str, stage: str, short_help: str):
    @main.command(name, short_help=short_help)
    @click.option("--force", is_flag=True, help="Re-run even if outputs are up to date.")
    @click.pass_context
    def _cmd(ctx: click.Context, force: bool) -> None:
        _execute(ctx, [stage], force)

    _cmd.__doc__ = short_help
    return _cmd


_stage_command("split", "split",
               "Sample unseen relations, check the sources, write dev/test views per seed.")
_stage_command("generate", "generate",
               "Generate synthetic documents for unseen relations via the chat backend.")
_stage_command("pseudo-label", "pseudo-label",
               "Run the relation predictor over the synthetic documents.")
_stage_command("denoise", "denoise",
               "Prune and relabel synthetic data by cross-document consistency.")
_stage_command("evaluate", "evaluate",
               "Score final predictions on the dev/test splits and write the report.")


@main.command("finetune-data",
              short_help="Assemble instruction-tuning samples (JSONL).")
@click.option("--denoised", is_flag=True,
              help="Build samples from the denoised synthetic corpus instead of "
                   "the seen-relation view of the train source.")
@click.option("--force", is_flag=True, help="Re-run even if outputs are up to date.")
@click.pass_context
def finetune_data(ctx: click.Context, denoised: bool, force: bool) -> None:
    """Assemble instruction-tuning samples (JSONL)."""
    stage = "finetune-data-denoised" if denoised else "finetune-data"
    _execute(ctx, [stage], force)


@main.command("run-all", short_help="Run every stage in order, skipping up-to-date ones.")
@click.option("--force", is_flag=True, help="Re-run all stages from scratch.")
@click.pass_context
def run_all(ctx: click.Context, force: bool) -> None:
    """Run every stage in order, skipping up-to-date ones, then print the report."""
    runner = _execute(ctx, None, force)
    text = runner.report_text()
    if text:
        click.echo("")
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
