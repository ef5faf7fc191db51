"""Command-line interface: bench, compare, allocate, sobol, schedule."""

from __future__ import annotations

import json
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import click
from click.core import ParameterSource

from . import benchmarks, experiments
from .allocation import load_instance, load_instance_csv, synth_instance
from .core import checked_int
from .experiments import ExperimentConfig
from .optimizer import EnhancedCuckooSearch
from .sobol import BITS, SobolSequence

# every option that sets a config field takes its default from here
_DEFAULTS = ExperimentConfig()

# ``sobol`` and ``schedule`` emit their rows in blocks of at most this many,
# so the text of the rows takes the same memory whatever their count
_BLOCK = 1024


class _ErrorBoundary(click.Group):
    """The CLI's one error boundary: a ``ValueError`` from any command exits 1 with its message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_ErrorBoundary)
def main():
    """Cuckoo-search optimization toolkit: benchmark protocol, statistical
    comparison and the discretized location-allocation experiment."""


def _load_config(ctx, param, config_path) -> dict:
    """``--config`` callback: the file's settings by name, for ``ExperimentConfig`` to check."""
    if config_path is None:
        return {}
    try:
        config_data = json.loads(Path(config_path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:  # ValueError: invalid JSON or text that is not UTF-8
        raise click.ClickException(f"cannot read config file: {exc}")
    if not isinstance(config_data, dict):
        raise click.ClickException("config file must hold a JSON object")
    unknown = set(config_data) - {field.name for field in dataclass_fields(ExperimentConfig)}
    if unknown:
        raise click.ClickException(f"unknown config keys: {sorted(unknown)}")
    return config_data


def _given(ctx, name) -> bool:
    """Whether the user gave the parameter ``name``, rather than leaving it at its default."""
    return ctx.get_parameter_source(name) is not ParameterSource.DEFAULT


def _settings(*names):
    """Options for the ``ExperimentConfig`` fields ``names``, in order: ``--<name>`` (``--seed`` for
    ``base_seed``), with the field's default and that default's type."""

    def decorate(command):
        for name in reversed(names):
            default = getattr(_DEFAULTS, name)
            flag = "--seed" if name == "base_seed" else f"--{name.replace('_', '-')}"
            command = click.option(flag, name, default=default, show_default=True,
                                   type=type(default))(command)
        return command

    return decorate


def _writable_dir(out_dir) -> Path:
    """``out_dir``, created if missing; exits 1 before any work when it cannot be written."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise click.ClickException(f"output directory not writable: {exc}")
    return out


@main.group(invoke_without_command=True)
@click.option("--functions", default="all", show_default=True,
              help="Comma-separated function ids (F1..F13) or 'all'.")
@click.option("--algorithms", default=",".join(_DEFAULTS.algorithms), show_default=True)
@_settings(*(field.name for field in dataclass_fields(ExperimentConfig)
              if not isinstance(field.default, tuple)))
@click.option("--config", "config_path", default=None, type=click.Path(exists=True),
              callback=_load_config, help="JSON config file; explicit flags override its values.")
@click.option("--out", "out_dir", default="results", show_default=True,
              type=click.Path(file_okay=False))
@click.pass_context
def bench(ctx, config_path, out_dir, **flags):
    """Run the benchmark protocol and write results, summary and traces."""
    if ctx.invoked_subcommand is not None:
        # the subcommand reads none of bench's options
        for param in ctx.command.params:
            if _given(ctx, param.name):
                raise click.UsageError(f"{param.opts[0]} does not apply to bench "
                                       f"{ctx.invoked_subcommand}")
        return
    # config_path holds the file's settings, as _load_config returns them
    given = {name: value for name, value in flags.items() if _given(ctx, name)}
    config = ExperimentConfig(**config_path | given)
    plan = experiments.plan_benchmark(config)
    out = _writable_dir(out_dir)
    total = len(config.functions) * len(config.algorithms) * config.trials
    click.echo(f"running {total} optimization runs -> {out}", err=True)
    experiments.write_benchmark_outputs(*plan.run(), out)
    click.echo(f"wrote {out / 'results.csv'}", err=True)


@bench.command("list")
def bench_list():
    """Print the benchmark suite table."""
    header = f"{'id':<4} {'name':<26} {'dim':>3} {'lower':>8} {'upper':>8} {'optimum':>12}"
    click.echo(header)
    click.echo("-" * len(header))
    for spec in benchmarks.suite():
        click.echo(
            f"{spec.id:<4} {spec.name:<26} {spec.dim:>3} "
            f"{spec.box.lower[0]:>8.2f} {spec.box.upper[0]:>8.2f} "
            f"{spec.known_optimum_value:>12.4f}"
        )


@main.command()
@click.option("--results", "results_path", required=True, type=click.Path(exists=True))
@click.option("--level", default=0.05, show_default=True, type=float)
@click.option("--out", "out_dir", default=None, type=click.Path(file_okay=False))
def compare(results_path, level, out_dir):
    """Compare both algorithms per function on a bench results file."""
    rows = experiments.read_results_csv(results_path)
    comparison = experiments.compare_rows(rows, level=level)
    out = _writable_dir(out_dir) if out_dir else None
    table = experiments.comparison_table(comparison)
    click.echo(table)
    if out:
        experiments.write_comparison_csv(comparison, out / "comparison.csv")
        (out / "comparison.txt").write_text(table + "\n", encoding="utf-8")
        click.echo(f"wrote {out / 'comparison.csv'}", err=True)


@main.command()
@click.option("--instance", "instance_path", default=None, type=click.Path(exists=True),
              help="JSON instance file with blocks/areas records.")
@click.option("--blocks", "blocks_path", default=None, type=click.Path(exists=True),
              help="CSV of block records (id,x,y); requires --areas.")
@click.option("--areas", "areas_path", default=None, type=click.Path(exists=True))
@click.option("--synthetic", is_flag=True, help="Use a seeded synthetic instance.")
@click.option("--blocks-count", default=50, show_default=True, type=int)
@click.option("--areas-count", default=11, show_default=True, type=int)
@click.option("--algorithm", default="ecsa", show_default=True,
              type=click.Choice(experiments.ALGORITHMS))
@_settings("trials", "base_seed", "population", "iterations")
@click.option("--out", "out_dir", default="allocation_results", show_default=True,
              type=click.Path(file_okay=False))
@click.pass_context
def allocate(ctx, instance_path, blocks_path, areas_path, synthetic, blocks_count,
             areas_count, algorithm, out_dir, **settings):
    """Optimize block-to-area assignment and report the oracle gap."""
    sources = sum([instance_path is not None, blocks_path is not None, synthetic])
    if sources != 1:
        raise click.UsageError(
            "choose exactly one instance source: --instance, --blocks/--areas or --synthetic"
        )
    if blocks_path and not areas_path:
        raise click.UsageError("--blocks requires --areas")
    if areas_path and not blocks_path:
        raise click.UsageError("--areas requires --blocks")
    for name in ("blocks_count", "areas_count"):
        if not synthetic and _given(ctx, name):
            raise click.UsageError(f"--{name.replace('_', '-')} requires --synthetic")
    config = ExperimentConfig(algorithms=(algorithm,), **settings)
    if synthetic:
        # the instance's arrays come after the pre-flight, which needs counts >= 1
        dim = checked_int("n_blocks", blocks_count, 1) * checked_int("n_areas", areas_count, 1)
        plan = experiments.plan_allocation(config, dim)
        instance = synth_instance(blocks_count, areas_count, seed=config.base_seed)
    else:
        instance = (load_instance(instance_path) if instance_path
                    else load_instance_csv(blocks_path, areas_path))
        plan = experiments.plan_allocation(config, instance.decision_dim)
    out = _writable_dir(out_dir)
    report = plan.run(instance)[algorithm]
    experiments.write_allocation_outputs(instance, report, out)
    click.echo(
        f"{algorithm}: oracle {report.oracle_fitness:.6f}  "
        f"mean {report.mean_fitness:.6f} (std {report.std_fitness:.6f})  "
        f"best {report.best_fitness:.6f}  mean gap {report.mean_gap:.2%}  "
        f"best gap {report.best_gap:.2%}"
    )
    click.echo(f"wrote {out / f'allocation_{algorithm}.csv'}", err=True)


@main.command()
@click.option("--dim", required=True, type=int)
@click.option("--count", required=True, type=int)
def sobol(dim, count):
    """Emit Sobol points as CSV on standard output."""
    if count < 1:
        raise click.UsageError(f"--count must be >= 1, got {count}")
    if count > 2**BITS - 1:
        raise click.UsageError(f"--count must be <= 2**{BITS} - 1 = {2**BITS - 1}, got {count}")
    sequence = SobolSequence(dim)
    for start in range(0, count, _BLOCK):
        for point in sequence.take(min(_BLOCK, count - start)).tolist():
            click.echo(",".join(map(repr, point)))


@main.command()
@click.option("--t0", default=_DEFAULTS.t0, show_default=True, type=int)
@click.option("--tmult", default=_DEFAULTS.t_mult, show_default=True, type=float)
@click.option("--iters", default=_DEFAULTS.iterations, show_default=True, type=int)
@click.option("--pa-min", default=_DEFAULTS.pa_min, show_default=True, type=float)
@click.option("--pa-max", default=_DEFAULTS.pa_max, show_default=True, type=float)
@click.option("--alpha-min", default=_DEFAULTS.alpha_min, show_default=True, type=float)
@click.option("--alpha-max", default=_DEFAULTS.alpha_max, show_default=True, type=float)
def schedule(t0, tmult, iters, pa_min, pa_max, alpha_min, alpha_max):
    """Emit the (iteration, discovery rate, step size) annealing table."""
    if iters < 0:
        raise click.UsageError(f"--iters must be >= 0, got {iters}")
    # the two schedule rows of iters + 1 floats, EngineInputs' read-only copies of them and
    # the masks of its checks: a traced peak of 34-35 bytes a row, counted as 40
    needed, memory = 40 * (iters + 1), experiments.physical_memory()
    if memory is not None and needed > memory:
        raise click.ClickException(f"--iters={iters} needs about {needed} bytes, more than the "
                                   f"{memory} bytes of physical memory")
    inputs = EnhancedCuckooSearch(
        iterations=iters + 1, pa_min=pa_min, pa_max=pa_max, alpha_min=alpha_min,
        alpha_max=alpha_max, t0=t0, t_mult=tmult,
    ).engine_inputs()
    click.echo("iteration,pa,alpha")
    for start in range(0, iters + 1, _BLOCK):
        block = slice(start, start + _BLOCK)
        rows = zip(inputs.pa[block].tolist(), inputs.alpha[block].tolist())
        for iteration, (p, a) in enumerate(rows, start):
            click.echo(f"{iteration},{p!r},{a!r}")


if __name__ == "__main__":
    sys.exit(main())
