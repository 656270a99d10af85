"""herd7-compatible litmus frontend: four dialects onto one IR.

This package parses herd7-style ``.litmus`` files — the format of the
diy/litmus7 suites accompanying the paper — and lowers each dialect's
mnemonics, addressing registers, and ``exists``/``forall``/``~exists``
postconditions onto the neutral :class:`~repro.litmus.test.LitmusTest`
IR.  Every dialect also renders back out (:func:`dumps`) in parse-stable
idioms, so shrunk reproducers and reports can be written in the syntax
the test arrived in, and ``loads(dumps(t)) == t`` holds for every
representable test.

=============  =========================  =============================
header tag     architecture               TM mnemonics (pragma-gated)
=============  =========================  =============================
``X86``        :mod:`.x86`                ``XBEGIN/XEND/XABORT``
``AArch64``    :mod:`.aarch64`            ``TSTART/TCOMMIT/TABORT``
``PPC``        :mod:`.ppc`                ``tbegin./tend./tabort.``
``RISCV``      :mod:`.riscv`              ``tx.begin/tx.end/tx.abort``
=============  =========================  =============================

Transactional mnemonics require the ``(* repro: txn *)`` pragma
(:data:`~repro.litmus.frontend.common.TXN_PRAGMA`); the renderers emit
it whenever a program transacts.

:func:`load_any` auto-detects the neutral format (``litmus "name"
arch`` header) versus the dialect frontends (``<ARCH> <name>``
header); :func:`load_litmus_file` adds path-prefixed diagnostics on
top, which is what ``repro run`` / ``repro campaign`` use.
"""

from __future__ import annotations

import re

from ..parse import ParseError
from ..parse import loads as neutral_loads
from ..test import LitmusTest
from .aarch64 import AArch64Dialect
from .common import TXN_PRAGMA, Dialect, FrontendError, split_sections
from .ppc import PpcDialect
from .riscv import RiscvDialect
from .x86 import X86Dialect

__all__ = [
    "DIALECTS",
    "FrontendError",
    "TXN_PRAGMA",
    "detect_dialect",
    "dialect_for",
    "dump_dialect",
    "dumps",
    "load_dialect",
    "loads",
    "load_any",
    "load_litmus_file",
]

#: Dialect singletons, keyed by neutral architecture tag.
DIALECTS: dict[str, Dialect] = {
    d.arch: d
    for d in (X86Dialect(), AArch64Dialect(), PpcDialect(), RiscvDialect())
}

_TAG_TO_ARCH = {
    tag.lower(): dialect.arch
    for dialect in DIALECTS.values()
    for tag in dialect.tags
}

_NEUTRAL_HEADER = re.compile(r'^\s*litmus\s+"')


def dialect_for(arch: str) -> Dialect:
    """The dialect serving one neutral architecture tag."""
    try:
        return DIALECTS[arch]
    except KeyError:
        raise ValueError(
            f"no litmus dialect for architecture {arch!r}; "
            f"dialects: {', '.join(sorted(DIALECTS))}"
        ) from None


def detect_dialect(text: str) -> str | None:
    """The neutral arch tag of ``text``'s dialect header, or None.

    Detection reads the first word of the first non-comment,
    non-blank line — ``X86``/``AArch64``/``PPC``/``RISCV`` (and their
    aliases) name a dialect; anything else (e.g. the neutral format's
    ``litmus`` keyword) does not.
    """
    stripped = re.sub(r"\(\*.*?\*\)", " ", text, flags=re.DOTALL)
    for line in stripped.splitlines():
        if line.strip():
            return _TAG_TO_ARCH.get(line.split()[0].lower())
    return None


def loads(text: str) -> LitmusTest:
    """Parse a dialect ``.litmus`` file into the neutral IR."""
    sections = split_sections(text)
    arch = _TAG_TO_ARCH.get(sections.arch_tag.lower())
    if arch is None:
        raise FrontendError(
            f"unknown architecture tag {sections.arch_tag!r}; "
            f"known: {', '.join(sorted(t for d in DIALECTS.values() for t in d.tags))}",
            sections.lineno,
        )
    return DIALECTS[arch].parse(sections)


def dumps(test: LitmusTest) -> str:
    """Serialise ``test`` in its architecture's dialect syntax.

    The output parses back equal: ``loads(dumps(t)) == t``.
    """
    return dialect_for(test.arch).dump(test)


def _first_content_line(text: str) -> str:
    """The first line that is not blank or a neutral-format ``#`` comment."""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            return stripped
    return ""


def load_any(text: str) -> LitmusTest:
    """Parse litmus text in either the neutral or a dialect format."""
    first = _first_content_line(text)
    if _NEUTRAL_HEADER.match(first) or first.startswith("litmus"):
        return neutral_loads(text)
    if detect_dialect(text) is not None:
        return loads(text)
    raise FrontendError(
        "unrecognised litmus format: expected a neutral 'litmus \"name\" "
        "arch' header or a dialect 'X86|AArch64|PPC|RISCV <name>' header",
        1,
    )


#: Collision-free aliases for package-level re-export (the neutral
#: format owns the bare ``loads``/``dumps`` names in ``repro.litmus``).
def load_dialect(text: str) -> LitmusTest:
    """Alias of :func:`loads` under a neutral-format-safe name."""
    return loads(text)


def dump_dialect(test: LitmusTest) -> str:
    """Alias of :func:`dumps` under a neutral-format-safe name."""
    return dumps(test)


def load_litmus_file(path: str, data: "bytes | None" = None) -> LitmusTest:
    """Load a ``.litmus`` file, auto-detecting its format.

    ``data``, when given, is the file's bytes as already read; the file
    is then not opened.  Either way the bytes are decoded as a text-mode
    read decodes them: UTF-8, with ``\\r\\n`` and ``\\r`` read as ``\\n``.
    Parse failures re-raise as :class:`FrontendError` with the path
    prefixed, so CLI consumers print ``file:line: message`` diagnostics.
    """
    if data is None:
        with open(path, "rb") as handle:
            data = handle.read()
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    try:
        return load_any(text)
    except ParseError as exc:
        lineno = getattr(exc, "lineno", None)
        message = getattr(exc, "message", str(exc))
        where = f"{path}:{lineno}" if lineno is not None else path
        raise FrontendError(f"{where}: {message}") from exc
