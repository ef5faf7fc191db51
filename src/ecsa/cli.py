"""Command-line interface: bench, compare, allocate, sobol, schedule."""

from __future__ import annotations

import json
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import click

from . import benchmarks, experiments
from .allocation import load_instance, load_instance_csv, synth_instance
from .experiments import ExperimentConfig
from .optimizer import EnhancedCuckooSearch
from .sobol import BITS, SobolSequence

# every option that sets a config field takes its default from here
_DEFAULTS = ExperimentConfig()

# the ``sobol`` command emits its points in blocks of at most this many rows,
# which bounds its memory whatever ``--count`` is
_SOBOL_BLOCK = 1024


@click.group()
def main():
    """Cuckoo-search optimization toolkit: benchmark protocol, statistical
    comparison and the discretized location-allocation experiment."""


def _expected_type(value, default):
    """What a config value must be to replace ``default``, or None when ``value`` is that."""
    if isinstance(default, tuple):
        strings = isinstance(value, list) and all(isinstance(item, str) for item in value)
        return None if isinstance(value, str) or strings else "a string or a list of strings"
    kinds = int if isinstance(default, int) else (int, float)
    if isinstance(value, kinds) and not isinstance(value, bool):
        return None
    return "an integer" if kinds is int else "a number"


def _load_config(ctx, param, config_path):
    """Eager ``--config`` callback: check the file and make its values the defaults that flags override."""
    if config_path is None:
        return
    try:
        config_data = json.loads(Path(config_path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: invalid JSON or text that is not UTF-8
        raise click.ClickException(f"cannot read config file: {exc}")
    if not isinstance(config_data, dict):
        raise click.ClickException("config file must hold a JSON object")
    defaults = {f.name: f.default for f in dataclass_fields(ExperimentConfig)}
    unknown = set(config_data) - set(defaults)
    if unknown:
        raise click.ClickException(f"unknown config keys: {sorted(unknown)}")
    for name, value in config_data.items():
        expected = _expected_type(value, defaults[name])
        if expected:
            raise click.ClickException(f"config key {name!r} must be {expected}, got {value!r}")
    # click's string type would str() a list: join the ids into their flag's comma string
    ctx.default_map = {name: ",".join(value) if isinstance(value, list) else value
                       for name, value in config_data.items()}


def _writable_dir(out_dir) -> Path:
    """``out_dir``, created if missing; exits 1 before any work when it cannot be written."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise click.ClickException(f"output directory not writable: {exc}")
    return out


@main.group(invoke_without_command=True)
@click.option("--functions", default="all", show_default=True,
              help="Comma-separated function ids (F1..F13) or 'all'.")
@click.option("--algorithms", default=",".join(_DEFAULTS.algorithms), show_default=True)
@click.option("--trials", default=_DEFAULTS.trials, show_default=True, type=int)
@click.option("--seed", "base_seed", default=_DEFAULTS.base_seed, show_default=True, type=int)
@click.option("--dim", default=_DEFAULTS.dim, show_default=True, type=int)
@click.option("--population", default=_DEFAULTS.population, show_default=True, type=int)
@click.option("--iterations", default=_DEFAULTS.iterations, show_default=True, type=int)
@click.option("--pa", default=_DEFAULTS.pa, show_default=True, type=float)
@click.option("--alpha", default=_DEFAULTS.alpha, show_default=True, type=float)
@click.option("--pa-min", default=_DEFAULTS.pa_min, show_default=True, type=float)
@click.option("--pa-max", default=_DEFAULTS.pa_max, show_default=True, type=float)
@click.option("--alpha-min", default=_DEFAULTS.alpha_min, show_default=True, type=float)
@click.option("--alpha-max", default=_DEFAULTS.alpha_max, show_default=True, type=float)
@click.option("--t0", default=_DEFAULTS.t0, show_default=True, type=int)
@click.option("--t-mult", default=_DEFAULTS.t_mult, show_default=True, type=float)
@click.option("--config", "config_path", default=None, type=click.Path(exists=True),
              is_eager=True, expose_value=False, callback=_load_config,
              help="JSON config file; explicit flags override its values.")
@click.option("--out", "out_dir", default="results", show_default=True,
              type=click.Path(file_okay=False))
@click.pass_context
def bench(ctx, out_dir, **flags):
    """Run the benchmark protocol and write results, summary and traces."""
    if ctx.invoked_subcommand is not None:
        return
    try:
        config = ExperimentConfig(**flags)
        experiments.check_benchmark(config)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    out = _writable_dir(out_dir)
    total = len(config.functions) * len(config.algorithms) * config.trials
    click.echo(f"running {total} optimization runs -> {out}", err=True)
    try:
        rows, traces = experiments.run_benchmark(config)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    experiments.write_benchmark_outputs(rows, traces, out)
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
    try:
        rows = experiments.read_results_csv(results_path)
        comparison = experiments.compare_rows(rows, level=level)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    out = _writable_dir(out_dir) if out_dir else None
    table = experiments.comparison_table(comparison)
    click.echo(table)
    if out:
        experiments.write_comparison_csv(comparison, out / "comparison.csv")
        (out / "comparison.txt").write_text(table + "\n")
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
@click.option("--trials", default=_DEFAULTS.trials, show_default=True, type=int)
@click.option("--seed", "base_seed", default=_DEFAULTS.base_seed, show_default=True, type=int)
@click.option("--population", default=_DEFAULTS.population, show_default=True, type=int)
@click.option("--iterations", default=_DEFAULTS.iterations, show_default=True, type=int)
@click.option("--out", "out_dir", default="allocation_results", show_default=True,
              type=click.Path(file_okay=False))
def allocate(instance_path, blocks_path, areas_path, synthetic, blocks_count,
             areas_count, algorithm, trials, base_seed, population, iterations, out_dir):
    """Optimize block-to-area assignment and report the oracle gap."""
    sources = sum([instance_path is not None, blocks_path is not None, synthetic])
    if sources != 1:
        raise click.UsageError(
            "choose exactly one instance source: --instance, --blocks/--areas or --synthetic"
        )
    try:
        config = ExperimentConfig(algorithms=(algorithm,), trials=trials, base_seed=base_seed,
                                  population=population, iterations=iterations)
        if instance_path:
            instance = load_instance(instance_path)
        elif blocks_path:
            if not areas_path:
                raise click.UsageError("--blocks requires --areas")
            instance = load_instance_csv(blocks_path, areas_path)
        else:
            instance = synth_instance(blocks_count, areas_count, seed=base_seed)
        experiments.check_settings(config, instance.decision_dim, trials)
        out = _writable_dir(out_dir)
        report = experiments.run_allocation(instance, algorithm, config)
    except ValueError as exc:
        raise click.ClickException(str(exc))
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
    try:
        sequence = SobolSequence(dim)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    for start in range(0, count, _SOBOL_BLOCK):
        for point in sequence.take(min(_SOBOL_BLOCK, count - start)).tolist():
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
    try:
        inputs = EnhancedCuckooSearch(
            iterations=iters + 1, pa_min=pa_min, pa_max=pa_max, alpha_min=alpha_min,
            alpha_max=alpha_max, t0=t0, t_mult=tmult,
        ).engine_inputs()
    except ValueError as exc:
        raise click.ClickException(str(exc))
    click.echo("iteration,pa,alpha")
    for iteration, (p, a) in enumerate(zip(inputs.pa.tolist(), inputs.alpha.tolist())):
        click.echo(f"{iteration},{p!r},{a!r}")


if __name__ == "__main__":
    sys.exit(main())
