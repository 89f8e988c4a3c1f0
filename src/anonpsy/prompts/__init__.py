"""Versioned prompt assets and template rendering.

Each template is a text file shipped with the package. A file may contain
``[[SYSTEM]]`` and ``[[USER]]`` section markers; without markers the whole
file is the user message. Placeholders use ``{name}`` syntax and are replaced
literally, so braces inside substituted values are never re-interpreted.
"""

from __future__ import annotations

import functools
import hashlib
import re
from importlib import resources

_PLACEHOLDER = re.compile(r"\{([a-z][a-z0-9_]*)\}")


class TemplateError(KeyError):
    pass


# The templates ship with the package and do not change while it runs, so each
# file is read and hashed once per process.
@functools.cache
def _asset_text(template_id: str) -> str:
    try:
        return resources.files(__name__).joinpath(f"{template_id}.txt").read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise TemplateError(f"no prompt template named {template_id!r}") from exc


@functools.cache
def asset_hash(template_id: str) -> str:
    """SHA-256 of the raw template file, for run manifests and drift guards."""
    raw = resources.files(__name__).joinpath(f"{template_id}.txt").read_bytes()
    return hashlib.sha256(raw).hexdigest()


@functools.cache
def list_templates() -> tuple[str, ...]:
    names = []
    for entry in resources.files(__name__).iterdir():
        if entry.name.endswith(".txt"):
            names.append(entry.name[: -len(".txt")])
    return tuple(sorted(names))


def _split_sections(text: str) -> list[tuple[str, str]]:
    if "[[SYSTEM]]" not in text and "[[USER]]" not in text:
        return [("user", text.strip("\n"))]
    sections: list[tuple[str, str]] = []
    role = None
    buf: list[str] = []
    for line in text.splitlines():
        marker = line.strip()
        if marker in ("[[SYSTEM]]", "[[USER]]"):
            if role is not None:
                sections.append((role, "\n".join(buf).strip("\n")))
            role = "system" if marker == "[[SYSTEM]]" else "user"
            buf = []
        else:
            buf.append(line)
    if role is not None:
        sections.append((role, "\n".join(buf).strip("\n")))
    return sections


# Parsed once per process, like the file it reads.
@functools.cache
def _template(template_id: str) -> tuple[tuple[tuple[str, str], ...], frozenset[str]]:
    """The template's (role, content) sections and the names of its placeholders."""
    text = _asset_text(template_id)
    return tuple(_split_sections(text)), frozenset(_PLACEHOLDER.findall(text))


def render(template_id: str, variables: dict[str, str]) -> list[tuple[str, str]]:
    """Render a template into (role, content) messages.

    Every placeholder in the template must be provided; extra variables are
    allowed (they still participate in mock fixture digests).
    """
    sections, needed = _template(template_id)
    missing = needed - set(variables)
    if missing:
        raise TemplateError(
            f"template {template_id!r} missing variables: {', '.join(sorted(missing))}"
        )
    # One pass per section: a value that holds a placeholder is never filled in again.
    return [(role, _PLACEHOLDER.sub(lambda m: str(variables[m.group(1)]), content)) for role, content in sections]
