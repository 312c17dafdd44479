"""Command-line interface: the ``sparsescene`` console script.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every subcommand and flag is declared once, in ``_COMMANDS``. A flag can also
be supplied via a ``SPARSESCENE_<FLAG>`` environment variable or a
``key = value`` file passed with ``--config``; explicit flags win over the
environment, which wins over the file, which wins over the declared default.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .bank import DictionaryBank
from .corpus import Corpus, generate_corpus, read_wav, write_wav
from .errors import DataError, NumericalError
from .evaluate import analyze_signal, run_manifest, simulate_manifest
from .manifest import Manifest
from .regimes import ALL_REGIMES
from .training import learn_bank
from .dictionary import METHODS

__all__ = ["main", "build_parser", "load_config_file", "parse_bool"]

log = logging.getLogger(__name__)

ENV_PREFIX = "SPARSESCENE_"


def parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def load_config_file(path: Path | str | None) -> dict[str, str]:
    """Read a ``key = value`` file; ``#`` starts a comment, blanks ignored."""
    if path is None:
        return {}
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().lower().replace("-", "_")] = value.strip()
    return values


def _csv(text: str) -> tuple[str, ...]:
    return tuple(r.strip() for r in str(text).split(",") if r.strip())


#: default of a flag that has no default and must be given
REQUIRED = object()


class _Flag(NamedTuple):
    """One subcommand flag; ``default=None`` means optional and unset."""

    name: str
    help: str
    default: Any = REQUIRED
    parse: Callable[[str], Any] = str
    choices: tuple[str, ...] = ()


class _UsageError(Exception):
    """Raised for problems that are usage, not data."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with status 1."""

    def error(self, message):  # noqa: A002 - argparse API
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cmd_make_corpus(o) -> dict:
    root = generate_corpus(Path(o.out), seed=o.seed, noise_seconds=o.noise_seconds)
    corpus = Corpus.from_dir(root)
    return {
        "corpus_dir": str(root),
        "noises": sorted(corpus.noises),
        "speakers": sorted(corpus.speakers),
    }


def _cmd_learn_dict(o) -> dict:
    corpus = Corpus.from_dir(o.corpus)
    bank = learn_bank(corpus, o.method, o.atoms, tw=o.tw, tb=o.tb, seed=o.seed)
    out_path = Path(o.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    bank.save(out_path)
    _, groups = bank.concatenated()
    return {
        "bank": str(out_path),
        "method": o.method,
        "noises": list(bank.noise_labels),
        "speakers": list(bank.speaker_labels),
        "atoms_per_source": {f"{kind}/{label}": s.stop - s.start for kind, label, s in groups},
        "content_hash": bank.content_hash(),
    }


def _cmd_simulate(o) -> dict:
    return simulate_manifest(Manifest.from_file(o.manifest), Path(o.out))


def _load_bank_and_wav(o) -> tuple[DictionaryBank, int, np.ndarray]:
    bank = DictionaryBank.load(o.bank)
    sr = bank.stft_config.sample_rate
    _, samples = read_wav(Path(o.wav), expect_sr=sr)
    return bank, sr, samples


def _cmd_classify(o) -> dict:
    bank, _, samples = _load_bank_and_wav(o)
    analysis, _ = analyze_signal(bank, samples)
    return analysis


def _cmd_separate(o) -> dict:
    bank, sr, samples = _load_bank_and_wav(o)
    analysis, sep = analyze_signal(bank, samples)
    for part in ("speech", "noise"):
        path = Path(f"{o.out_prefix}_{part}.wav")
        path.parent.mkdir(parents=True, exist_ok=True)
        write_wav(path, getattr(sep, part), sr)
        analysis[f"{part}_wav"] = str(path)
    return analysis


def _cmd_evaluate(o) -> dict:
    manifest = Manifest.from_file(o.manifest)
    if o.regimes is not None:
        manifest.regimes = o.regimes
    banks = None
    if o.bank is not None:
        bank = DictionaryBank.load(o.bank)
        banks = {bank.method: bank}
        manifest.methods = (bank.method,)
    return run_manifest(manifest, Path(o.out), resume=o.resume, banks=banks)


_BANK = _Flag("bank", "bank file (.npz)")
_WAV = _Flag("wav", "input WAV file")

#: subcommand -> (handler, help, flags); flags resolve in this order
_COMMANDS: dict[str, tuple[Callable[[Any], dict], str, tuple[_Flag, ...]]] = {
    "make-corpus": (_cmd_make_corpus, "synthesise the desk-scale corpus", (
        _Flag("out", "corpus output directory"),
        _Flag("seed", "generation seed", 0, int),
        _Flag("noise_seconds", "length of each noise recording", 40.0, float),
    )),
    "learn-dict": (_cmd_learn_dict, "learn a dictionary bank from a corpus", (
        _Flag("corpus", "corpus directory"),
        _Flag("out", "bank output file (.npz)"),
        _Flag("method", "learning method", "kmeans", choices=METHODS),
        _Flag("tw", "within-source similarity threshold", 0.8, float),
        _Flag("tb", "between-source similarity threshold", 0.8, float),
        _Flag("atoms", "atoms per source", 20, int),
        _Flag("seed", "learning seed", 0, int),
    )),
    "simulate": (_cmd_simulate, "render a manifest's scenarios to WAV files", (
        _Flag("manifest", "manifest JSON file"),
        _Flag("out", "output directory"),
    )),
    "classify": (_cmd_classify, "blind analysis of one WAV against a bank", (_BANK, _WAV)),
    "separate": (_cmd_separate, "split one WAV into speech and noise estimates", (
        _Flag("out_prefix", "prefix for <prefix>_speech.wav / <prefix>_noise.wav"),
        _BANK,
        _WAV,
    )),
    "evaluate": (_cmd_evaluate, "run a full campaign and write report files", (
        _Flag("manifest", "manifest JSON file"),
        _Flag("out", "output directory"),
        _Flag("regimes", "comma-separated regimes overriding the manifest", None, _csv,
              ALL_REGIMES),
        _Flag("resume", "reuse completed rows found in the output directory", True,
              parse_bool),
        _Flag("bank", "use this prebuilt bank instead of learning per method", None),
    )),
}


def _help(flag: _Flag) -> str:
    notes = [f"one of {', '.join(flag.choices)}"] if flag.choices else []
    if flag.default not in (None, REQUIRED):
        notes.append(f"default {flag.default}")
    return f"{flag.help} ({'; '.join(notes)})" if notes else flag.help


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsescene",
        description="Dictionary-based speech/noise scene analysis tools.",
    )
    parser.add_argument("--config", help="key = value options file")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug-level logging")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            # None marks "not given", so the environment and the file can fill it.
            p.add_argument(
                "--" + flag.name.replace("_", "-"), type=flag.parse, help=_help(flag)
            )
    return parser


def _resolve(args: argparse.Namespace, conf: dict[str, str]) -> argparse.Namespace:
    """Every flag of ``args.command``: explicit flag > environment > ``conf`` > default."""
    resolved = argparse.Namespace()
    for flag in _COMMANDS[args.command][2]:
        env_key = ENV_PREFIX + flag.name.upper()
        value = getattr(args, flag.name)
        try:
            if value is None and env_key in os.environ:
                where = f"value for {env_key}"
                value = flag.parse(os.environ[env_key])
            elif value is None and flag.name in conf:
                where = f"config value for {flag.name!r}"
                value = flag.parse(conf[flag.name])
        except (TypeError, ValueError) as exc:
            raise DataError(f"invalid {where}: {exc}") from exc
        if value is None:
            value = flag.default
        if value is REQUIRED:
            raise _UsageError(f"missing --{flag.name.replace('_', '-')} (or {env_key})")
        if flag.choices and value is not None:
            values = value if isinstance(value, tuple) else (value,)
            if not values:
                raise _UsageError(f"--{flag.name} given but empty")
            bad = [v for v in values if v not in flag.choices]
            if bad:
                raise _UsageError(f"unknown {flag.name} {bad}; choose from {flag.choices}")
        setattr(resolved, flag.name, value)
    return resolved


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    if args.command is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        options = _resolve(args, load_config_file(args.config))
        summary = _COMMANDS[args.command][0](options)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    except _UsageError as exc:
        print(f"sparsescene: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        log.error("%s", exc)
        return 2
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        log.error("numerical failure: %s", exc)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
