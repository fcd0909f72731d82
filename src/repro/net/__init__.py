"""Network substrate: packets, links, switches, shaping, TCP/UDP."""

from repro.net.packet import FRAME_OVERHEAD_BYTES, Packet
from repro.net.interface import Interface
from repro.net.link import Link
from repro.net.switch import Switch, SwitchPort
from repro.net.host import Host
from repro.net.dummynet import Pipe, PipeConfig
from repro.net.delaynode import DelayNode, LinkShape, install_shaped_link
from repro.net.lan import LanSegment, install_lan
from repro.net.sockets import StreamSocket, connect_stream, listen_stream
from repro.net.tcp import (DEFAULT_RECV_BUFFER, MSS, TCPConnection, TCPStack,
                           TCPStats)
from repro.net.udp import UDPSocket, UDPStack

__all__ = [
    "FRAME_OVERHEAD_BYTES", "Packet", "Interface", "Link", "Switch",
    "SwitchPort", "Host", "Pipe", "PipeConfig", "DelayNode", "LinkShape",
    "install_shaped_link",
    "LanSegment", "install_lan",
    "StreamSocket", "connect_stream", "listen_stream",
    "DEFAULT_RECV_BUFFER", "MSS", "TCPConnection", "TCPStack", "TCPStats",
    "UDPSocket", "UDPStack",
]
