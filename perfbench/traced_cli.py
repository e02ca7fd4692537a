"""Run the infobounds CLI with the tracer installed; save its counters.

Usage: ``python3 perfbench/traced_cli.py COUNTERS.json CLI-ARGS...``
The report goes to stdout as usual; the exit code is the CLI's.
"""

import json
import sys
from pathlib import Path

import checkout

checkout.prepare()
import infobounds.cli  # noqa: E402

from tracer import Tracer  # noqa: E402

checkout.package_file(infobounds.cli)
tracer = Tracer()
with tracer.installed():
    code = infobounds.cli.main(sys.argv[2:])
Path(sys.argv[1]).write_text(json.dumps(tracer.values()))
sys.exit(code)
