"""Structured logging for the reproduction (``repro.obs.log``).

Library code never prints (repro-lint rule OBS001 enforces this):
subsystems log through ``get_logger("<subsystem>")`` -- a stdlib logger
under the ``repro.`` namespace -- and attach structured fields with the
``kv(...)`` helper::

    logger = get_logger("runtime.connection")
    logger.info("session established", extra=kv(device="A", peer="B"))

Formatting is opt-in: :func:`configure` installs a handler on the
``repro`` root logger rendering one ``key=value`` line per record.
Without :func:`configure` the records propagate to whatever logging
setup the host application has -- the library itself stays silent by
default (stdlib last-resort handler only shows WARNING and above).
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Any, Dict, Optional, TextIO

__all__ = ["KeyValueFormatter", "configure", "get_logger", "kv"]

ROOT_LOGGER = "repro"

#: The ``extra`` slot structured fields travel in (one namespaced key
#: avoids collisions with LogRecord's reserved attribute names).
_KV_ATTR = "repro_kv"


def get_logger(subsystem: str) -> logging.Logger:
    """The logger for one subsystem (``repro.<subsystem>``)."""
    if not subsystem:
        return logging.getLogger(ROOT_LOGGER)
    return logging.getLogger(f"{ROOT_LOGGER}.{subsystem}")


def kv(**fields: Any) -> Dict[str, Dict[str, Any]]:
    """Structured fields for a log call: ``logger.info(msg, extra=kv(...))``."""
    return {_KV_ATTR: fields}


def _record_fields(record: logging.LogRecord) -> Dict[str, Any]:
    fields = getattr(record, _KV_ATTR, None)
    return dict(fields) if isinstance(fields, dict) else {}


class KeyValueFormatter(logging.Formatter):
    """``time level logger message key=value ...`` single-line records."""

    default_time_format = "%H:%M:%S"

    def format(self, record: logging.LogRecord) -> str:
        base = (
            f"{self.formatTime(record)} {record.levelname:<7} "
            f"{record.name} {record.getMessage()}"
        )
        fields = _record_fields(record)
        if fields:
            rendered = " ".join(
                f"{name}={_scalar(value)}" for name, value in fields.items()
            )
            base = f"{base} {rendered}"
        if record.exc_info:
            base = f"{base}\n{self.formatException(record.exc_info)}"
        return base


def _scalar(value: Any) -> str:
    text = str(value)
    if " " in text or '"' in text:
        return json.dumps(text)
    return text


def configure(
    level: str = "info", stream: Optional[TextIO] = None
) -> logging.Logger:
    """Install (or replace) the ``repro`` handler; returns the root logger.

    Idempotent: repeated calls reconfigure the single handler instead of
    stacking duplicates.
    """
    logger = logging.getLogger(ROOT_LOGGER)
    logger.setLevel(getattr(logging, level.upper(), logging.INFO))
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_obs", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(KeyValueFormatter())
    handler._repro_obs = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    logger.propagate = False
    return logger
