"""One measured gridfort CLI run, started by run.py as its own process.

    python3 child.py RESULT MODE SRC -- CLI_ARGS...

MODE is ``run`` (plain), ``trace`` (spans around gridfort's public calls)
or ``setup`` (stop where set-up ends). Set-up ends at the first call to
``sbd_design``. RESULT receives the CLI exit code and monotonic timestamps
of the end of set-up and of the CLI's return, plus the spans of a traced
run. The process exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time


class _SetupDone(BaseException):
    """Raised at the end of set-up in ``setup`` mode; a BaseException so the
    CLI's own error handling lets it through."""


def main(argv: list[str]) -> int:
    result_path, mode, src = argv[0], argv[1], argv[2]
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, src)
    import gridfort.cli as cli

    recorder = None
    if mode == "trace":
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)

    marks: dict[str, float] = {}

    def setup_done() -> None:
        if "setup_end" not in marks:
            marks["setup_end"] = time.monotonic()
            if mode == "setup":
                raise _SetupDone

    sbd_design = cli.sbd_design

    def timed_sbd_design(*args, **kwargs):
        setup_done()
        return sbd_design(*args, **kwargs)

    cli.sbd_design = timed_sbd_design
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    marks["end"] = time.monotonic()
    result = {"exit_code": code, **marks}
    if recorder is not None:
        result["trace"] = recorder.to_dict()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
