"""Structured logging: namespacing, kv fields, the key=value formatter."""

import io
import logging

from repro.obs.log import KeyValueFormatter, configure, get_logger, kv


def make_record(message="session established", **fields):
    logger = get_logger("runtime.test")
    return logger.makeRecord(
        logger.name, logging.INFO, __file__, 1, message, (), None,
        extra=kv(**fields),
    )


def test_loggers_live_under_the_repro_namespace():
    assert get_logger("runtime.connection").name == "repro.runtime.connection"
    assert get_logger("").name == "repro"


def test_key_value_formatter_renders_fields_inline():
    line = KeyValueFormatter().format(make_record(device="A", peer="B"))
    assert "session established" in line
    assert "device=A" in line and "peer=B" in line
    assert "repro.runtime.test" in line


def test_key_value_formatter_quotes_awkward_scalars():
    line = KeyValueFormatter().format(make_record(error="boom went it"))
    assert 'error="boom went it"' in line


def test_configure_is_idempotent():
    stream = io.StringIO()
    logger = configure(level="debug", stream=stream)
    configure(level="debug", stream=stream)
    owned = [
        handler
        for handler in logger.handlers
        if getattr(handler, "_repro_obs", False)
    ]
    assert len(owned) == 1
    get_logger("test").debug("hello", extra=kv(n=1))
    assert "hello" in stream.getvalue()
    # Leave global logging state as we found it.
    logger.removeHandler(owned[0])
    logger.propagate = True
    logger.setLevel(logging.NOTSET)
