"""The field-file format, fields_NNNN.csv: a header, then one row
x,rho,u,v,n per grid node with 17 significant digits, formatted from raw
native doubles (rho, u, v, n of each node in turn).  Standard library only,
so that `python -I -S fieldfile.py NODES OUTDIR...` runs without numpy: it
reads NODES node coordinates from stdin, then for each output time until
end of input a native 8-byte count c and 4 * NODES doubles for each of the
first c OUTDIRs, and writes each one's file for that time into its OUTDIR.
"""

import os
import sys
from array import array


def template(x: bytes) -> str:
    """The field-file text of the grid with node coordinates x, with a %.17g
    slot for each field at each node."""
    return "x,rho,u,v,n\n" + "".join(
        "%.17g," % xi + "%.17g,%.17g,%.17g,%.17g\n" for xi in array("d", x))


def write(outdir: "str | os.PathLike", index: int, text: str,
          fields: bytes) -> None:
    """Write snapshot `index` of the grid whose template is `text`."""
    with open(os.path.join(outdir, "fields_%04d.csv" % index), "w") as fh:
        fh.write(text % tuple(array("d", fields)))


if __name__ == "__main__":
    nodes, outdirs, stdin = int(sys.argv[1]), sys.argv[2:], sys.stdin.buffer
    text = template(stdin.read(8 * nodes))
    index = 0
    try:
        while head := stdin.read(8):
            for outdir in outdirs[:int.from_bytes(head, sys.byteorder)]:
                write(outdir, index, text, stdin.read(32 * nodes))
            index += 1
    except OSError as exc:
        sys.exit(str(exc))   # its one line on stderr, exit status 1
