package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Every ordered shard pair shares one long-lived link: a connection the
// sender opens once with an HTTP upgrade on the receiver's listener and
// then writes frames on (codec.go). The receiver hijacks it off its HTTP
// server and runs one reader goroutine on it; the sender runs one that
// only notices the receiver closing it. A link that closes for any reason
// drops every session its peer drives on this shard and fails every wait
// on the peer in the others at once; the next frame to that peer dials a
// fresh link.
const (
	linkProtocol   = "cdrw-link/1"
	linkFromHeader = "X-Cdrw-From" // the dialling shard's advertise URL

	// maxOrphanFrame bounds a frame for a session this shard does not hold;
	// a larger one closes the link.
	maxOrphanFrame = 1 << 20
)

// link is one connection of a shard pair, in either direction.
type link struct {
	peer string
	conn net.Conn
	done chan struct{} // closed once the link's goroutine has exited
}

// addLink registers a link and counts its goroutine, unless Stop ran.
func (n *Node) addLink(peer string, conn net.Conn) *link {
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	if n.linksOff {
		conn.Close()
		return nil
	}
	l := &link{peer: peer, conn: conn, done: make(chan struct{})}
	n.links[l] = struct{}{}
	n.linkWG.Add(1)
	return l
}

// linkDone retires a link as its goroutine exits, failing the peer's
// sessions and waits with the cause.
func (n *Node) linkDone(l *link, cause error) {
	l.conn.Close()
	n.linkMu.Lock()
	delete(n.links, l)
	n.linkMu.Unlock()
	n.failPeer(l.peer, fmt.Errorf("link closed: %w", cause))
	close(l.done)
	n.linkWG.Done()
}

// closeLinks closes every link to or from peer ("" for all of them) and
// waits for their goroutines.
func (n *Node) closeLinks(peer string) {
	var done []chan struct{}
	n.linkMu.Lock()
	for l := range n.links {
		if peer == "" || l.peer == peer {
			l.conn.Close()
			done = append(done, l.done)
		}
	}
	n.linkMu.Unlock()
	for _, d := range done {
		<-d
	}
}

// send writes one frame to peer, dialling a link first if it has none,
// and returns the frame's size. Sends are serialised per shard (a frame is
// one write); each write carries a PeerTimeout deadline, and a failed one
// closes the link. A close frame dials no link: the one its session was
// opened on has closed, which dropped the session at the peer.
func (n *Node) send(peer, sid string, payload []byte) (int, error) {
	frame := appendFrame(make([]byte, 0, frameOverhead+len(sid)+len(payload)), sid, payload)
	n.sendMu.Lock()
	defer n.sendMu.Unlock()
	l := n.outbound[peer]
	if l != nil {
		select {
		case <-l.done:
			l = nil // the peer closed it
		default:
		}
	}
	if l == nil {
		if payload[0] == closeMagic {
			return 0, nil
		}
		var err error
		if l, err = n.dialLink(peer); err != nil {
			return 0, &PeerError{Peer: peer, Err: fmt.Errorf("open link: %w", err)}
		}
		n.outbound[peer] = l
	}
	_ = l.conn.SetWriteDeadline(time.Now().Add(n.peerTimeout))
	if _, err := l.conn.Write(frame); err != nil {
		l.conn.Close()
		return 0, &PeerError{Peer: peer, Err: fmt.Errorf("write frame: %w", err)}
	}
	return len(frame), nil
}

// dialLink opens a link to peer, upgraded within PeerTimeout.
func (n *Node) dialLink(peer string) (*link, error) {
	u, err := url.Parse(peer)
	if err != nil || u.Scheme != "http" {
		return nil, fmt.Errorf("%w: peer %q is not an http:// URL", errCluster, peer)
	}
	conn, err := net.DialTimeout("tcp", u.Host, n.peerTimeout)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(n.peerTimeout))
	_, err = io.WriteString(conn, "GET "+u.Path+"/cluster/link HTTP/1.1\r\nHost: "+u.Host+
		"\r\nConnection: Upgrade\r\nUpgrade: "+linkProtocol+"\r\n"+linkFromHeader+": "+n.cfg.Advertise+"\r\n\r\n")
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(bufio.NewReaderSize(conn, 256), nil)
	}
	if err == nil && resp.StatusCode != http.StatusSwitchingProtocols {
		err = fmt.Errorf("%w: link upgrade answered %s", errCluster, resp.Status)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	l := n.addLink(peer, conn)
	if l == nil {
		return nil, fmt.Errorf("%w: node stopped", errCluster)
	}
	go func() {
		_, err := conn.Read(make([]byte, 1))
		if err == nil {
			err = errors.New("peer wrote on an outbound link")
		}
		n.linkDone(l, err)
	}()
	return l, nil
}

// handleLink accepts a peer's link: GET /cluster/link with Upgrade:
// cdrw-link/1 and the sender's advertise URL in X-Cdrw-From, answered 101.
// The sender must be another member: a shard answers a link's frames by
// sending to that URL, so it never takes a link it would not dial itself.
func (n *Node) handleLink(w http.ResponseWriter, r *http.Request) {
	from := r.Header.Get(linkFromHeader)
	if !strings.EqualFold(r.Header.Get("Upgrade"), linkProtocol) || from == "" {
		clusterError(w, fmt.Errorf("%w: a link needs Upgrade: %s and %s", errBadRequest, linkProtocol, linkFromHeader))
		return
	}
	n.mu.Lock()
	_, member := n.members[from]
	n.mu.Unlock()
	if !member || from == n.cfg.Advertise {
		clusterError(w, fmt.Errorf("%w: link from %q, not another member", errBadRequest, from))
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		clusterError(w, fmt.Errorf("%w: this connection cannot be upgraded", errCluster))
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		return
	}
	// The server's deadlines stay on a hijacked connection. Bytes before
	// the 101 mean a confused peer.
	_ = conn.SetDeadline(time.Now().Add(n.peerTimeout))
	_, err = io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+linkProtocol+"\r\n\r\n")
	if err != nil || brw.Reader.Buffered() > 0 {
		conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})
	if l := n.addLink(from, conn); l != nil {
		go n.readLink(l)
	}
}

// readLink files one inbound link's frames until it fails or closes. A
// frame's length is checked before its payload is read: against its
// session's bound for the sender or, for a frame no live session here
// takes, against maxOrphanFrame; then an open against maxControlBody. The
// reader runs an open itself, so no later frame of its session overtakes
// it; an orphan advance is answered 409 and any other orphan discarded.
func (n *Node) readLink(l *link) {
	br := bufio.NewReaderSize(l.conn, 1<<10)
	var err error
	for err == nil {
		var sid string
		var size uint32
		if sid, size, err = readFrameHead(br); err != nil {
			break
		}
		if size == 0 {
			continue // an empty frame carries nothing
		}
		s, from := n.linkSession(sid, l.peer)
		limit := int64(maxOrphanFrame)
		if s != nil {
			limit = s.maxFrameBytes(from)
		}
		if int64(size) > limit {
			err = fmt.Errorf("%w: %d-byte frame for session %q over its %d-byte bound", errCluster, size, sid, limit)
			break
		}
		var magic []byte
		if magic, err = br.Peek(1); err != nil {
			break
		}
		switch {
		case magic[0] == openMagic && size > maxControlBody:
			n.answer(l.peer, sid, encodeError(fmt.Errorf("%w: %d-byte open frame: %w", errBadRequest, size, &http.MaxBytesError{Limit: maxControlBody})))
			_, err = br.Discard(int(size))
		case magic[0] == openMagic:
			payload := make([]byte, size)
			if _, err = io.ReadFull(br, payload); err == nil {
				n.serveOpen(l.peer, sid, payload)
			}
		case s == nil:
			if magic[0] == advanceMagic {
				n.answer(l.peer, sid, encodeError(fmt.Errorf("%w: advance for unknown session %q", errCluster, sid)))
			}
			_, err = br.Discard(int(size))
		default:
			payload := make([]byte, size)
			if _, err = io.ReadFull(br, payload); err == nil {
				s.deliver(from, payload, int64(frameOverhead+len(sid))+int64(size))
			}
		}
	}
	n.linkDone(l, err)
}

// answer writes a reader's answer to peer from its own goroutine, as
// serveAdvance writes replies: a link reader never writes. A lost answer
// fails the sender's wait through the link's close or its own deadline.
func (n *Node) answer(peer, sid string, payload []byte) {
	n.linkWG.Add(1)
	go func() {
		defer n.linkWG.Done()
		_, _ = n.send(peer, sid, payload)
	}()
}
