"""Command-line interface: the ``sparsescene`` console script.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every subcommand and flag is declared once, in ``_COMMANDS``; argparse fills
each flag from the command line or its declared default, and nothing else.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .bank import DictionaryBank
from .corpus import NOISE_SECONDS, Corpus, generate_corpus, read_wav, write_wav
from .errors import DataError, NumericalError
from .evaluate import analyze_signal, run_manifest, simulate_manifest
from .manifest import Manifest
from .training import learn_bank
from .dictionary import METHODS, RECIPE

__all__ = ["main", "build_parser", "parse_bool"]

log = logging.getLogger(__name__)


def parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


#: default of a flag that has no default and must be given
REQUIRED = object()


class _Flag(NamedTuple):
    """One subcommand flag; ``default=None`` means optional and unset."""

    name: str
    help: str
    default: Any = REQUIRED
    parse: Callable[[str], Any] = str
    choices: tuple[str, ...] = ()


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
    bank.save(o.out)
    _, groups = bank.concatenated()
    return {
        "bank": str(Path(o.out)),
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
    banks = None
    if o.bank is not None:
        bank = DictionaryBank.load(o.bank)
        banks = {bank.method: bank}
        manifest.methods = (bank.method,)
    return run_manifest(manifest, Path(o.out), resume=o.resume, banks=banks)


_BANK = _Flag("bank", "bank file (.npz)")
_WAV = _Flag("wav", "input WAV file")

#: subcommand -> (handler, help, flags)
_COMMANDS: dict[str, tuple[Callable[[Any], dict], str, tuple[_Flag, ...]]] = {
    "make-corpus": (_cmd_make_corpus, "synthesise the desk-scale corpus", (
        _Flag("out", "corpus output directory"),
        _Flag("seed", "generation seed", 0, int),
        _Flag("noise_seconds", "length of each noise recording", NOISE_SECONDS, float),
    )),
    "learn-dict": (_cmd_learn_dict, "learn a dictionary bank from a corpus", (
        _Flag("corpus", "corpus directory"),
        _Flag("out", "bank output file (.npz)"),
        _Flag("method", "learning method", "kmeans", choices=METHODS),
        _Flag("tw", "within-source similarity threshold", RECIPE["tw"], float),
        _Flag("tb", "between-source similarity threshold", RECIPE["tb"], float),
        _Flag("atoms", "atoms per source", RECIPE["n_atoms"], int),
        _Flag("seed", "learning seed", RECIPE["seed"], int),
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
    parser.add_argument("-v", "--verbose", action="store_true", help="debug-level logging")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            p.add_argument(
                "--" + flag.name.replace("_", "-"),
                type=flag.parse,
                default=None if flag.default is REQUIRED else flag.default,
                required=flag.default is REQUIRED,
                choices=flag.choices or None,
                metavar=flag.name.upper(),
                help=_help(flag),
            )
    return parser


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
        summary = _COMMANDS[args.command][0](args)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    except (DataError, OSError) as exc:
        log.error("%s", exc)
        return 2
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        log.error("numerical failure: %s", exc)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
