"""Shipped stabilizer codes, the .stab file format, and golden fixtures.

A ``.stab`` file is a plain-text transcription of a code's generator
table::

    # comment lines start with '#'
    name: eight_qubit
    n: 8
    k: 3
    XXXXXXXX
    ZZZZZZZZ
    ...

Header lines (``name:``, ``n:``, ``k:``) come first, followed by exactly
``n - k`` generator lines of Pauli letters (an optional leading ``+`` or
``-`` sign is accepted).  Parse and validation failures raise
:class:`StabParseError` carrying the offending line number.

The package ships three codes under ``codes/`` and, under ``golden/``,
one pipeline config and one optimized golden circuit per code plus the
short CNOT-block realisation the eight-qubit config uses as a search
witness.  The environment variable ``STABSYNTH_FIXTURE_DIR`` names a
directory that is consulted before the packaged data, so both kinds of
fixture can be overridden without reinstalling.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

from .circuit import Circuit, _Frozen, from_json
from .pauli import PauliString
from .symplectic import CheckMatrix, StandardForm, standard_form

__all__ = [
    "FIXTURE_ENV",
    "CodeDefinition",
    "StabParseError",
    "golden_circuit",
    "golden_config",
    "list_codes",
    "load_code",
    "load_stab",
    "loads_stab",
    "run_golden_pipeline",
]

FIXTURE_ENV = "STABSYNTH_FIXTURE_DIR"
SHIPPED_CODES = ("eight_qubit", "steane", "thirteen_qubit")

_HEADER_KEYS = ("name", "n", "k")


class StabParseError(ValueError):
    """A .stab file failed to parse or validate.

    ``line`` is the 1-based offending line number (0 when the problem is
    not tied to a single line, e.g. a missing header).
    """

    def __init__(self, source: str, line: int, message: str):
        self.source = source
        self.line = line
        where = f"{source}:{line}" if line else source
        super().__init__(f"{where}: {message}")


class CodeDefinition(_Frozen):
    """A validated stabilizer code: name, size, and generator list.

    The generators are validated once, into the ``CheckMatrix`` that
    ``check_matrix`` returns and ``standard_form`` reduces.
    """

    _fields = ("name", "n", "k", "generators", "notes")

    def __init__(self, name: str, n: int, k: int,
                 generators: tuple[PauliString, ...], notes: tuple[str, ...] = ()):
        self._set(name, n, k, generators, notes)
        if len(self.generators) != self.n - self.k:
            raise ValueError(
                f"code {self.name!r} declares n-k={self.n - self.k} "
                f"generators but provides {len(self.generators)}"
            )
        # CheckMatrix validates sizes, commutation, and independence.
        object.__setattr__(self, "_check", CheckMatrix(self.generators))

    def check_matrix(self) -> CheckMatrix:
        return self._check

    def standard_form(self) -> StandardForm:
        return standard_form(self._check)


def loads_stab(text: str, source: str = "<string>") -> CodeDefinition:
    """Parse .stab content from a string.  See the module docstring."""
    headers: dict[str, str] = {}
    header_lines: dict[str, int] = {}
    generators: list[PauliString] = []
    gen_lines: list[int] = []
    notes: list[str] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            notes.append(line[1:].strip())
            continue
        key, sep, value = line.partition(":")
        if sep and key.strip() in _HEADER_KEYS:
            key = key.strip()
            if generators:
                raise StabParseError(
                    source, lineno,
                    f"header {key!r} after the first generator line",
                )
            if key in headers:
                raise StabParseError(
                    source, lineno,
                    f"duplicate header {key!r} "
                    f"(first given on line {header_lines[key]})",
                )
            headers[key] = value.strip()
            header_lines[key] = lineno
            continue
        if sep and key.strip().isidentifier() and " " not in key.strip():
            raise StabParseError(source, lineno, f"unknown header {key.strip()!r}")
        try:
            generators.append(PauliString.parse(line))
        except ValueError as exc:
            raise StabParseError(source, lineno, f"bad generator: {exc}") from exc
        gen_lines.append(lineno)

    for key in _HEADER_KEYS:
        if key not in headers:
            raise StabParseError(source, 0, f"missing header {key!r}")
    name = headers["name"]
    try:
        n = int(headers["n"])
        k = int(headers["k"])
    except ValueError as exc:
        bad = "n" if not headers["n"].lstrip("-").isdigit() else "k"
        raise StabParseError(
            source, header_lines[bad], f"header {bad!r} is not an integer: "
            f"{headers[bad]!r}"
        ) from exc
    if not 0 < k < n:
        raise StabParseError(
            source, header_lines["k"], f"need 0 < k < n, got n={n}, k={k}"
        )
    if len(generators) != n - k:
        raise StabParseError(
            source, gen_lines[-1] if gen_lines else 0,
            f"expected n-k={n - k} generator lines, found {len(generators)}",
        )
    for p, lineno in zip(generators, gen_lines):
        if p.n != n:
            raise StabParseError(
                source, lineno, f"generator has {p.n} letters, expected n={n}"
            )
    try:
        return CodeDefinition(name, n, k, tuple(generators), tuple(notes))
    except ValueError as exc:
        # An anticommuting pair is named by its lines, whatever else fails.
        for i in range(len(generators)):
            for j in range(i + 1, len(generators)):
                if not generators[i].commutes_with(generators[j]):
                    raise StabParseError(
                        source, gen_lines[j],
                        f"generator anticommutes with the generator on line "
                        f"{gen_lines[i]}",
                    ) from exc
        raise StabParseError(source, 0, str(exc)) from exc


def load_stab(path: str | Path) -> CodeDefinition:
    """Load and validate a .stab file."""
    p = Path(path)
    return loads_stab(p.read_text(), source=str(p))


@functools.cache
def _package_root():
    """The package's resource root, resolved once per process."""
    from importlib import resources  # only a shipped-fixture read needs it

    return resources.files(__package__)


def _data_text(subdir: str, filename: str) -> str:
    """Fixture file content: override directory first, package second.

    Only a file in the override directory overrides; a directory of the
    same name does not, as in ``load_code``.
    """
    override = os.environ.get(FIXTURE_ENV)
    if override:
        candidate = Path(override) / filename
        if candidate.is_file():
            return candidate.read_text()
    try:
        return _package_root().joinpath(subdir, filename).read_text()
    except (FileNotFoundError, IsADirectoryError):
        raise FileNotFoundError(f"no fixture {subdir}/{filename}") from None


def list_codes() -> list[str]:
    """Names of the shipped codes."""
    return list(SHIPPED_CODES)


def load_code(spec: str | Path) -> CodeDefinition:
    """Resolve ``spec`` to a code: a .stab path, or a shipped code name.

    Shipped names may be given with or without the ``.stab`` suffix;
    an existing file always wins, and a directory never does.
    """
    p = Path(spec)
    if p.is_file():
        return load_stab(p)
    name = p.name
    if name.endswith(".stab"):
        name = name[: -len(".stab")]
    if name in SHIPPED_CODES:
        return loads_stab(_data_text("codes", f"{name}.stab"), source=f"{name}.stab")
    raise FileNotFoundError(
        f"no such code or file: {spec!r} (shipped codes: "
        f"{', '.join(SHIPPED_CODES)})"
    )


def golden_config(name: str) -> dict:
    """The shipped pipeline config for ``name``, witnesses resolved.

    The returned dict holds ``gate_set``, ``level`` and optionally
    ``search_budget`` and ``block_witnesses`` (lists of [control, target]
    pairs, inlined from their own fixture files).
    """
    config = json.loads(_data_text("golden", f"{name}.config.json"))
    refs = config.pop("block_witness_refs", [])
    if refs:
        witnesses = []
        for ref in refs:
            payload = json.loads(_data_text("golden", f"{ref}.json"))
            witnesses.append([tuple(pair) for pair in payload["ops"]])
        config["block_witnesses"] = witnesses
    return config


def golden_circuit(name: str) -> Circuit:
    """The shipped optimized golden circuit for ``name``."""
    return from_json(_data_text("golden", f"{name}.optimized.json"))


def run_golden_pipeline(name: str):
    """Synthesize ``name``'s encoder and optimize it with its shipped config.

    Returns ``(optimized_circuit, report, unoptimized_encoder)``.
    """
    from .encoder import synthesize_encoder
    from .optimizer import optimize

    code = load_code(name)
    config = golden_config(name)
    sf = code.standard_form()
    encoder = synthesize_encoder(sf, gate_set=config["gate_set"])
    kwargs = {"level": config["level"]}
    if "search_budget" in config:
        kwargs["search_budget"] = config["search_budget"]
    if "block_witnesses" in config:
        kwargs["block_witnesses"] = config["block_witnesses"]
    optimized, report = optimize(encoder, **kwargs)
    return optimized, report, encoder
