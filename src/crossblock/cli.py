"""Command-line interface.

Subcommands cover every pipeline: ``simulate`` (null | subspace), ``fit``
(full-sample analysis), ``permute``, ``bootstrap``, ``reproduce``
(train/test + split-half, optionally null-calibrated), ``sweep``
(detectability | fpr | reproducibility by sample size), ``pca``
(fit | scores | stability), and ``plot-data`` (plot-ready CSV extraction
from a report).

Options may come from a JSON config file (--config) mirroring the
experiment configuration. The file accepts exactly the values its flags
accept, explicit flags override it, and every command reads from it the
options it has, plot-data its out_dir too. The effective configuration is
echoed into every report, except --threads, which never changes results.
With a fixed --seed every run writes byte-identical files, whatever the
thread count.

Exit codes: 0 success, 2 input or validation error, 3 numerical failure,
4 I/O error.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .blocks import prepare_pair
from .datagen import SimulationSpec, generate_null, generate_relevant_subspace
from .decomposition import CCA, PLS
from .errors import CrossBlockError, RankDeficient, ResamplingError
from .harness import (
    ExperimentConfig,
    run_detectability,
    run_false_positive_sweep,
    run_full_sample,
    run_reproducibility_by_n,
)
from .inference import bootstrap_ci, permutation_test
from .io import (
    PLOT_KINDS,
    ReportDocument,
    emit_plot_data,
    full_sample_section,
    load_csv,
    pca_stability_section,
    result_section,
    subsample_section,
    write_block_csv,
    write_matrix_csv,
    write_report,
)
from .parallel import default_threads
from .pca import VARIANCE_TARGET, component_scores, fit_pca, fit_reduction, pca_stability
from .reproducibility import null_calibration, split_half, train_test

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_NUMERICAL_ERRORS = (RankDeficient, ResamplingError)

FORMATS = ("json", "csv")
METHODS = (PLS, CCA, "both")


def _separated(parse, sep: str, expected: str):
    """The parse type of a flag that lists values separated by ``sep``. A value
    that ``parse`` cannot read refuses the flag, naming the ``expected`` form."""
    def parse_flag(text: str) -> tuple:
        try:
            return tuple(parse(v) for v in text.split(sep) if v.strip())
        except (ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
    return parse_flag


_int_list = _separated(int, ",", "comma-separated integers")
_float_list = _separated(float, ",", "comma-separated numbers")
# '1,2;3,4,6' parses into ((1, 2), (3, 4, 6))
_groups = _separated(_int_list, ";", "';'-separated groups of comma-separated integers")


def _pca_components(value):
    """An int >= 1, a fraction in (0, 1) or "auto", from a flag's text or a
    config file's value."""
    if value == "auto":
        return value
    try:
        number = float(value)
    except (ValueError, OverflowError):
        number = 0.0  # refused below, naming the flag
    if number >= 1 and number.is_integer():
        return int(number)
    if not 0 < number < 1:
        raise ValueError("--pca-components must be an int >= 1, a fraction "
                         "in (0,1), or 'auto'")
    return number


# Every option a config file may set, and the only declaration of its flag, as
# (default, JSON types, parse type, choices, help). A config file's value must
# have one of the JSON types exactly, so true and false are not numbers; a
# sample_sizes list holds integers. The flag parses with the parse type. A
# command resolves the options its parser defines. pca_components parses in
# _effective instead, so that a flag and a config file echo one value.
_OPTIONS = {
    "seed": (0, (int,), int, None, "master seed (default 0)"),
    "out_dir": (".", (str,), None, None, "output directory (default .)"),
    "format": ("json", (str,), None, FORMATS, "report format (default json)"),
    "threads": (None, (int, type(None)), int, None,
                "worker threads (default from CROSSBLOCK_THREADS); never affects results"),
    "method": ("both", (str,), None, METHODS, "analysis method (default both)"),
    "permutations": (1000, (int,), int, None, "permutation draws (default 1000)"),
    "bootstraps": (1000, (int,), int, None, "bootstrap draws (default 1000)"),
    "splits": (500, (int,), int, None, "random splits, at least 2 (default 500)"),
    "iterations": (500, (int,), int, None, "subsamples per sample size (default 500)"),
    "sample_sizes": ((500, 250, 100, 50, 20), (list,), _int_list, None,
                     "comma-separated sample sizes (default 500,250,100,50,20)"),
    "alpha": (0.05, (int, float), float, None, "significance level (default 0.05)"),
    "pca_components": (None, (int, float, str, type(None)), None, None,
                       "X components kept: an int, a variance fraction in (0,1), or 'auto' "
                       "for the 98%% rule (pca stability: an int, default 2)"),
}
# The options every command but plot-data takes. They say where and how a run
# writes, not what it computes; reports echo the others (the seed has its own
# metadata field).
_COMMON = ("seed", "out_dir", "format", "threads")


def _add_options(parser, keys, inputs="", required=True):
    """Declare --config, the block CSV flags named in ``inputs`` ("xy" gives
    --x and --y) and the flags of the table options ``keys`` on ``parser``."""
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    for name in inputs:
        parser.add_argument(f"--{name}", required=required, help=f"{name.upper()} block CSV")
    for key in keys:
        _, _, parse, choices, text = _OPTIONS[key]
        parser.add_argument("--" + key.replace("_", "-"), type=parse, choices=choices,
                            help=text)


def _resolve(args, key):
    """Flag > config file > default."""
    flag = getattr(args, key)
    if flag is not None:
        return flag
    cfg = args._config_data
    if key in cfg:
        value = cfg[key]
        return tuple(value) if key == "sample_sizes" else value
    return _OPTIONS[key][0]


def _effective(args) -> dict:
    """The resolved value of each option the subcommand's parser defines."""
    out = {k: _resolve(args, k) for k in _OPTIONS if k in vars(args)}
    if "threads" in out and out["threads"] is None:
        out["threads"] = default_threads()
    if out.get("pca_components") is not None:
        out["pca_components"] = _pca_components(out["pca_components"])
    return out


def _echo(eff: dict) -> dict:
    return {k: v for k, v in eff.items() if k not in _COMMON}


def _methods(method: str) -> tuple[str, ...]:
    return (PLS, CCA) if method == "both" else (method,)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossblock",
        description="Cross-block latent variable analysis (PLS and CCA) with "
                    "resampling significance, reliability, and reproducibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate synthetic datasets")
    sim_sub = sim.add_subparsers(dest="generator", required=True)
    null_p = sim_sub.add_parser("null", help="independent standard-normal blocks")
    null_p.add_argument("--n", type=int, default=10000)
    null_p.add_argument("--p", type=int, default=10)
    null_p.add_argument("--q", type=int, default=5)
    _add_options(null_p, _COMMON)
    sub_p = sim_sub.add_parser("subspace", help="relevant-subspace structured blocks")
    sub_p.add_argument("--n", type=int, default=10000)
    sub_p.add_argument("--p", type=int, default=50)
    sub_p.add_argument("--relevant-counts", type=_int_list, default=(15, 10),
                       help="designated predictors per component, e.g. 15,10")
    sub_p.add_argument("--relpos", type=_groups, default=((1, 2), (3, 4, 6)),
                       help="relevant X directions per component, e.g. '1,2;3,4,6'")
    sub_p.add_argument("--gamma", type=float, default=0.6)
    sub_p.add_argument("--m", type=int, default=4)
    sub_p.add_argument("--ypos", type=_groups, default=((1, 3), (2, 4)),
                       help="Y variable groups per component, e.g. '1,3;2,4'")
    sub_p.add_argument("--eta", type=float, default=0.0)
    sub_p.add_argument("--r2", type=_float_list, default=(0.2, 0.1))
    _add_options(sub_p, _COMMON)

    fit = sub.add_parser("fit", help="full-sample analysis")
    _add_options(fit, ("method", "permutations", "bootstraps", "splits", "pca_components",
                       *_COMMON), "xy")
    perm = sub.add_parser("permute", help="permutation test of the singular values")
    _add_options(perm, ("method", "permutations", *_COMMON), "xy")
    boot = sub.add_parser("bootstrap", help="bootstrap intervals for scaled weights")
    _add_options(boot, ("method", "bootstraps", *_COMMON), "xy")
    rep = sub.add_parser("reproduce", help="train/test and split-half assessment")
    _add_options(rep, ("method", "splits", *_COMMON), "xy")
    rep.add_argument("--null-calibrate", action="store_true",
                     help="also compute the permuted-Y null distributions")

    sweep = sub.add_parser("sweep", help="subsampling studies by sample size")
    sweep.add_argument("--kind", choices=("detectability", "fpr", "reproducibility"),
                       required=True, help="fpr draws its own null blocks; the others "
                                           "read --x and --y")
    _add_options(sweep, ("method", "sample_sizes", "iterations", "permutations", "splits",
                         "alpha", "pca_components", *_COMMON), "xy", required=False)
    sweep.add_argument("--fpr-n", type=int, default=10000)
    sweep.add_argument("--fpr-p", type=int, default=10)
    sweep.add_argument("--fpr-q", type=int, default=5)

    pca = sub.add_parser("pca", help="principal components of one block")
    pca_sub = pca.add_subparsers(dest="task", required=True)
    pca_fit = pca_sub.add_parser("fit", help="eigenspectrum report")
    _add_options(pca_fit, _COMMON, "x")
    pca_scores = pca_sub.add_parser("scores", help="write component scores as CSV")
    _add_options(pca_scores, ("pca_components", *_COMMON), "x")
    pca_scores.add_argument("--scores-out", default=None, help="output CSV path")
    pca_stab = pca_sub.add_parser("stability", help="component stability by sample size")
    _add_options(pca_stab, ("sample_sizes", "iterations", "pca_components", *_COMMON), "x")
    align = pca_stab.add_mutually_exclusive_group()
    align.add_argument("--align", dest="align", action="store_true", default=True)
    align.add_argument("--no-align", dest="align", action="store_false")

    plot = sub.add_parser("plot-data", help="extract plot-ready CSV from a report")
    plot.add_argument("--report", required=True, help="report JSON file")
    plot.add_argument("--kind", choices=PLOT_KINDS, required=True)
    _add_options(plot, ("out_dir",))
    return parser


def _load_config_file(args):
    data = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must contain a JSON object")
        for key, value in data.items():
            if key not in _OPTIONS:
                raise ValueError(f"config file: unknown key {key!r}")
            _, types, _, choices, _ = _OPTIONS[key]
            if type(value) not in types or (
                    key == "sample_sizes" and any(type(v) is not int for v in value)):
                raise ValueError(f"config file: {key!r} has the wrong type: {json.dumps(value)}")
            if choices and value not in choices:
                raise ValueError(f"config file: {key!r} must be one of "
                                 f"{', '.join(choices)}: {json.dumps(value)}")
    args._config_data = data


def _pca_pre(value):
    """The ``pca_pre`` of a parsed --pca-components value."""
    return VARIANCE_TARGET if value == "auto" else value


def _emit(eff: dict, kind: str, sections: dict, config: dict, stem: str | None = None) -> int:
    """Build the report, write it where and as ``eff`` says, and print the paths."""
    report = ReportDocument.build(kind=kind, seed=eff["seed"], config=config,
                                  sections=sections)
    for path in write_report(report, eff["out_dir"], stem=stem or kind.replace("-", "_"),
                             format=eff["format"]):
        print(path)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    eff = _effective(args)
    out_dir = Path(eff["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.generator == "null":
        dataset = generate_null(args.n, args.p, args.q, seed=eff["seed"])
        config = {"generator": "null", "n": args.n, "p": args.p, "q": args.q}
    else:
        spec = SimulationSpec(
            n=args.n, p=args.p, q_per_component=args.relevant_counts,
            relpos=args.relpos, gamma=args.gamma, m=args.m, ypos=args.ypos,
            eta=args.eta, r2=args.r2, seed=eff["seed"],
        )
        dataset = generate_relevant_subspace(spec)
        config = {"generator": "subspace", **dataclasses.asdict(spec)}
        del config["seed"]
    print(write_block_csv(dataset.x, out_dir / "x.csv"))
    print(write_block_csv(dataset.y, out_dir / "y.csv"))
    truth = dataset.truth
    for name, matrix in (("cov_xx", truth.cov_xx), ("cov_xy", truth.cov_xy),
                         ("cov_yy", truth.cov_yy)):
        print(write_matrix_csv(matrix, out_dir / f"truth_{name}.csv"))
    section = {
        "x_eigenvalues": truth.x_eigenvalues,
        "y_eigenvalues": truth.y_eigenvalues,
        "latent_cross_cov": truth.latent_cross_cov,
        "informative_y": truth.informative_y,
        "relevant_predictors": truth.relevant_predictors,
        "x_mixing": truth.x_mixing,
        "y_mixing": truth.y_mixing,
    }
    return _emit(eff, "simulate", {"truth": section}, config, stem="truth")


def _cmd_fit(args) -> int:
    eff = _effective(args)
    x = load_csv(args.x)
    y = load_csv(args.y)
    config = ExperimentConfig(
        n_perm=eff["permutations"], n_boot=eff["bootstraps"], n_split=eff["splits"],
        methods=_methods(eff["method"]), pca_pre=_pca_pre(eff["pca_components"]),
        seed=eff["seed"], threads=eff["threads"],
    )
    result = run_full_sample(x, y, config)
    return _emit(eff, "fit", {"full_sample": full_sample_section(result)}, _echo(eff))


def _cmd_permute(args) -> int:
    eff = _effective(args)
    x = load_csv(args.x)
    y = load_csv(args.y)
    sections = {}
    for method in _methods(eff["method"]):
        res = permutation_test(x, y, method, n_perm=eff["permutations"], seed=eff["seed"],
                               threads=eff["threads"])
        sections[f"permutation_{method}"] = result_section(res, bulk=True)
    return _emit(eff, "permute", sections, _echo(eff))


def _cmd_bootstrap(args) -> int:
    eff = _effective(args)
    x = load_csv(args.x)
    y = load_csv(args.y)
    sections = {}
    for method in _methods(eff["method"]):
        res = bootstrap_ci(x, y, method, n_boot=eff["bootstraps"], seed=eff["seed"],
                           threads=eff["threads"])
        sections[f"bootstrap_{method}"] = result_section(res, bulk=True)
    return _emit(eff, "bootstrap", sections, _echo(eff))


def _cmd_reproduce(args) -> int:
    eff = _effective(args)
    x = load_csv(args.x)
    y = load_csv(args.y)
    sections = {}
    for method in _methods(eff["method"]):
        pair = prepare_pair(x, y, whiten=method == CCA)
        tt = train_test(x, y, method, n_split=eff["splits"], seed=eff["seed"],
                        threads=eff["threads"], pair=pair)
        sh = split_half(x, y, method, n_split=eff["splits"], seed=eff["seed"],
                        threads=eff["threads"], pair=pair)
        body = {"train_test": result_section(tt, bulk=True),
                "split_half": result_section(sh, bulk=True)}
        if args.null_calibrate:
            ntt, nsh = null_calibration(x, y, method, n_split=eff["splits"],
                                        seed=eff["seed"], threads=eff["threads"], pair=pair)
            body["null_train_test"] = result_section(ntt, bulk=True)
            body["null_split_half"] = result_section(nsh, bulk=True)
        sections[f"reproducibility_{method}"] = body
    return _emit(eff, "reproduce", sections,
                 {**_echo(eff), "null_calibrate": args.null_calibrate})


def _cmd_sweep(args) -> int:
    eff = _effective(args)
    config = ExperimentConfig(
        sample_sizes=eff["sample_sizes"], n_iterations=eff["iterations"],
        n_perm=eff["permutations"], n_split=eff["splits"],
        methods=_methods(eff["method"]), pca_pre=_pca_pre(eff["pca_components"]),
        alpha=eff["alpha"], seed=eff["seed"], threads=eff["threads"],
    )
    if args.kind == "fpr":
        report_data = run_false_positive_sweep(config, n=args.fpr_n, p=args.fpr_p,
                                               q=args.fpr_q)
    else:
        if not args.x or not args.y:
            raise ValueError("--x and --y are required for this sweep kind")
        x = load_csv(args.x)
        y = load_csv(args.y)
        if args.kind == "detectability":
            report_data = run_detectability(x, y, config)
        else:
            report_data = run_reproducibility_by_n(x, y, config)
    return _emit(eff, f"sweep-{args.kind}", {"subsample": subsample_section(report_data)},
                 _echo(eff))


def _cmd_pca(args) -> int:
    eff = _effective(args)
    if args.task == "fit":
        model = fit_pca(load_csv(args.x))
        return _emit(eff, "pca-fit", {"pca": result_section(model, bulk=True)},
                     {"x": str(args.x)})
    if args.task == "scores":
        x = load_csv(args.x)
        scores = component_scores(x, *fit_reduction(x, _pca_pre(eff["pca_components"])))
        out = Path(args.scores_out) if args.scores_out else Path(eff["out_dir"]) / "scores.csv"
        out.parent.mkdir(parents=True, exist_ok=True)
        print(write_block_csv(scores, out))
        return EXIT_OK
    n_pc = _pca_pre(eff["pca_components"]) or 2
    if not isinstance(n_pc, int):
        raise ValueError("--pca-components must be an int >= 1 for pca stability")
    x = load_csv(args.x)
    result = pca_stability(
        x, sample_sizes=eff["sample_sizes"], n_iter=eff["iterations"], n_pc=n_pc,
        with_alignment=args.align, seed=eff["seed"], threads=eff["threads"],
    )
    config = {"sample_sizes": eff["sample_sizes"], "iterations": eff["iterations"],
              "n_pc": n_pc, "align": args.align}
    return _emit(eff, "pca-stability", {"pca_stability": pca_stability_section(result)},
                 config)


def _cmd_plot_data(args) -> int:
    report = ReportDocument.from_json(Path(args.report).read_text(encoding="utf-8"))
    for path in emit_plot_data(report, args.kind, _effective(args)["out_dir"]):
        print(path)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "permute": _cmd_permute,
    "bootstrap": _cmd_bootstrap,
    "reproduce": _cmd_reproduce,
    "sweep": _cmd_sweep,
    "pca": _cmd_pca,
    "plot-data": _cmd_plot_data,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _load_config_file(args)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse's status: 2 for a refused flag, 0 for --help
        return exc.code
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, CrossBlockError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
