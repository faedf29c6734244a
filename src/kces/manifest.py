"""Run manifests: reproducibility records for every CLI invocation.

A manifest captures the command tag, the resolved parameters, the exact
argv, and content digests of every input and output file.  Re-running the
stored argv must regenerate byte-identical outputs, so manifests contain
no timestamps, hostnames, or other run-varying fields.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

VERSION = "0.1.0"


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    command: str
    version: str
    parameters: dict
    inputs: dict
    outputs: dict
    argv: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "version": self.version,
            "parameters": self.parameters,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "argv": list(self.argv),
        }


def build_manifest(
    command: str,
    parameters: dict,
    inputs: dict[str, str],
    outputs: dict[str, str],
    argv: list[str] | tuple[str, ...] = (),
) -> RunManifest:
    """Digest the named input/output files and assemble the record.

    `inputs` and `outputs` map a role name (e.g. "edges") to a file path.
    """
    return RunManifest(
        command=command,
        version=VERSION,
        parameters=dict(parameters),
        inputs={name: {"path": path, "sha256": sha256_file(path)} for name, path in inputs.items()},
        outputs={name: {"path": path, "sha256": sha256_file(path)} for name, path in outputs.items()},
        argv=tuple(argv),
    )


def write_manifest(manifest: RunManifest, path: str) -> None:
    text = json.dumps(manifest.to_dict(), sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
