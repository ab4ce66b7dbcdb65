"""Relay between stdio and a line-protocol generator that listens on TCP:
`gen_tcp_relay.py <host> <port>`.  Each request line read on stdin goes to
the server, and the server's reply line is written to stdout.  With no
server listening, the relay exits and its stdout closes."""
import socket
import sys


with socket.create_connection((sys.argv[1], int(sys.argv[2]))) as conn:
    replies = conn.makefile("rb")
    for line in sys.stdin.buffer:
        conn.sendall(line)
        reply = replies.readline()
        if not reply:
            break
        sys.stdout.buffer.write(reply)
        sys.stdout.buffer.flush()
